"""Closed-loop driving, op seeds, latency statistics and process memory."""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


def derive_seed(*parts: int) -> int:
    """A 63-bit seed that is a pure function of ``parts``."""
    state = np.random.SeedSequence([int(part) for part in parts])
    return int(state.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def op_seed(workload_seed: int, client: int, index: int) -> int:
    """The ``rng`` seed of one op: fixed by the workload seed, the client id
    and the op index alone, never by thread scheduling."""
    return derive_seed(workload_seed, 1 + client, index)


@dataclass
class OpRecord:
    """One attempted op of a closed-loop client."""

    client: int
    index: int
    seed: int
    #: ``time.monotonic()`` at submit and when the reply was in hand.
    submitted: float
    done: float = 0.0
    ok: bool = False
    refused: bool = False
    error: str = ""
    found: bool = False
    #: What the op released, for the bitwise check (see ``verify``).
    fingerprint: Optional[dict] = None
    #: ``(thread ident, start, end)`` intervals whose spans belong to this op.
    intervals: List[Tuple[int, float, float]] = field(default_factory=list)
    #: Workload-specific extras (job timestamps, block counts, ...).
    extra: dict = field(default_factory=dict)

    @property
    def key(self) -> Tuple[int, int]:
        return (self.client, self.index)

    @property
    def latency(self) -> float:
        return self.done - self.submitted


def closed_loop(op: Callable[[int, int, int], OpRecord], clients: int,
                workload_seed: int, deadline: float,
                max_ops: Optional[int] = None) -> List[OpRecord]:
    """Run ``clients`` closed loops until ``deadline`` (``time.monotonic``).

    Each client sends its next op only after the previous one returned; an
    op started before the deadline runs to completion.  ``op(client, index,
    seed)`` returns the op's record.  One client runs on the calling thread,
    more run on one thread each.  Records come back sorted by
    ``(client, index)``.
    """
    records: List[List[OpRecord]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []

    def loop(client: int) -> None:
        try:
            index = 0
            while time.monotonic() < deadline and (max_ops is None
                                                   or index < max_ops):
                records[client].append(
                    op(client, index, op_seed(workload_seed, client, index)))
                index += 1
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    if clients == 1:
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(client,),
                                    name=f"bench-client-{client}")
                   for client in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return sorted((record for chunk in records for record in chunk),
                  key=lambda record: record.key)


def tail_latency(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """The highest-percentile latency with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ``N > 10`` samples that
    is the ``N-10``-th smallest, at percentile ``100 (N-10) / N``; with ten
    or fewer no value qualifies, and the maximum is returned at percentile
    100 so the caller can say so.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count == 0:
        raise ValueError("no latencies to summarise")
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def _status_fields(pid: int) -> dict:
    fields = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def descendant_pids(root: int) -> List[int]:
    """Every live descendant of ``root``, read from ``/proc``."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_status_fields(int(entry)).get("PPid", "0"))
        except (OSError, ValueError):
            continue  # the process ended while we looked
        children.setdefault(parent, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory (``VmHWM``) of a process plus its live
    descendants (e.g. sharded-backend workers), in MiB."""
    pid = os.getpid() if pid is None else pid
    total_kb = 0
    for member in [pid] + descendant_pids(pid):
        try:
            value = _status_fields(member).get("VmHWM")
        except OSError:
            continue
        if value:
            total_kb += int(value.split()[0])
    return total_kb / 1024.0
