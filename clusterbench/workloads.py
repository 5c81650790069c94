"""The three closed-loop workloads, driven through public entry points only.

Each workload generates its inputs from the workload seed in its
constructor, before anything is timed.  The runner then calls, in order:
``build``/``warm`` (timed together as set-up, repeated), ``begin_window``,
``op`` from each client's closed loop, ``pool_counters`` (around a traced
window), ``recompute`` (through :func:`verify_sample`) and ``close``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from clusterbench.measure import OpRecord, derive_seed
from clusterbench.verify import (
    Verification,
    check_ledger,
    one_cluster_fingerprint,
    spread_sample,
    stable_point_fingerprint,
)

from repro import PrivacyParams, ShardedBackend, auto_backend, one_cluster
from repro.accounting import BudgetExhaustedError
from repro.datasets import planted_cluster
from repro.sample_aggregate import private_mean_estimator
from repro.service import ClusteringService, ServiceSaturatedError

#: Per-release privacy budget of every workload (large enough that the
#: planted clusters are located essentially always).
PARAMS = PrivacyParams(4.0, 1e-6)

#: Timed releases recomputed through the independent path, per workload.
VERIFY_SAMPLE = 4

#: Salts that keep the seed streams of different inputs apart.
_DATA, _WARM, _TARGET = 101, 102, 103

_POOL_COUNTERS = ("plans", "fanouts", "shard_tasks")


def _finish(record: OpRecord, fingerprint: dict) -> OpRecord:
    record.done = time.monotonic()
    record.ok = True
    record.fingerprint = fingerprint
    record.found = bool(fingerprint["found"])
    record.intervals.append((threading.get_ident(), record.submitted,
                             record.done))
    return record


def _fail(record: OpRecord, error: Exception, refused: bool = False) -> OpRecord:
    record.done = time.monotonic()
    record.refused = refused
    record.error = repr(error)
    return record


def _pool_counters(backend) -> Optional[Dict[str, int]]:
    stats = getattr(backend, "pool_stats", None)
    if stats is None:
        return None
    values = stats()
    return {name: int(values[name]) for name in _POOL_COUNTERS}


class ServiceMixed:
    """Two tenants' closed loops of ``one_cluster`` queries against one
    resident dataset of a :class:`ClusteringService`.  Tenant 0 asks for
    target 300, tenant 1 for target 600, so consecutive queries on the
    dataset's executor switch target."""

    name = "service_mixed"
    clients = 2
    max_ops: Optional[int] = None
    N, D, CLUSTER, RADIUS = 6000, 2, 900, 0.05
    TARGETS = (300, 600)
    DATASET = "resident"
    #: A cap no run can exhaust: every admitted query must run.
    CAP = PrivacyParams(1e6, 0.5)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.points = planted_cluster(
            n=self.N, d=self.D, cluster_size=self.CLUSTER,
            cluster_radius=self.RADIUS, rng=derive_seed(seed, _DATA)).points
        self.service: Optional[ClusteringService] = None
        self._tenants: Sequence[str] = ()
        self._windows: List[Sequence[str]] = []

    def build(self) -> None:
        self.service = ClusteringService()
        entry = self.service.register_dataset(self.DATASET, self.points)
        self.backend = entry.backend
        executor = [thread for thread in threading.enumerate()
                    if thread.name == f"repro-service-{self.DATASET}"]
        self._executor = executor[0].ident if executor else None
        self._windows = []

    def warm(self) -> None:
        self.service.create_tenant("warm", self.CAP)
        for client, target in enumerate(self.TARGETS):
            self.service.one_cluster(
                "warm", self.DATASET, target=target, params=PARAMS,
                rng=derive_seed(self.seed, _WARM, client)).result()

    def begin_window(self, tag: int) -> None:
        self._tenants = tuple(f"tenant{client}-window{tag}"
                              for client in range(self.clients))
        for tenant in self._tenants:
            self.service.create_tenant(tenant, self.CAP)
        self._windows.append(self._tenants)

    def op(self, client: int, index: int, seed: int) -> OpRecord:
        record = OpRecord(client, index, seed, submitted=time.monotonic())
        record.extra["tenant"] = self._tenants[client]
        try:
            job = self.service.one_cluster(
                self._tenants[client], self.DATASET,
                target=self.TARGETS[client], params=PARAMS, rng=seed)
        except (BudgetExhaustedError, ServiceSaturatedError) as error:
            return _fail(record, error, refused=True)
        record.extra["admitted"] = True
        try:
            result = job.result()
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            return _fail(record, error)
        finally:
            record.extra.update(submitted_at=job.submitted_at,
                                started_at=job.started_at,
                                finished_at=job.finished_at)
        _finish(record, one_cluster_fingerprint(result))
        if self._executor is not None:
            record.intervals.append((self._executor, job.started_at,
                                     job.finished_at))
        return record

    def pool_counters(self) -> Optional[Dict[str, int]]:
        return _pool_counters(self.backend)

    def recompute(self, record: OpRecord) -> dict:
        """The same query as a direct library call on a fresh chunked
        backend."""
        return one_cluster_fingerprint(one_cluster(
            self.points, self.TARGETS[record.client], PARAMS,
            rng=record.seed, backend="chunked"))

    def verify_ledgers(self, windows: Sequence[Sequence[OpRecord]],
                       verification: Verification) -> None:
        """Each tenant was debited exactly once per admitted query."""
        stats = self.service.service_stats()["tenants"]
        for tenants, records in zip(self._windows, windows):
            for tenant in tenants:
                admitted = sum(1 for record in records
                               if record.extra.get("tenant") == tenant
                               and record.extra.get("admitted"))
                check_ledger(verification, tenant, stats[tenant], admitted,
                             PARAMS.epsilon, PARAMS.delta)

    def stamp(self) -> dict:
        return {"backend": self.backend.name, "n": self.N, "d": self.D,
                "targets": list(self.TARGETS)}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class ColdRelease:
    """One client; each op is a one-shot library ``one_cluster`` call on a
    freshly generated dataset with its own target (nothing resident)."""

    name = "cold_release"
    clients = 1
    N, D, RADIUS = 2500, 16, 0.05
    TARGET_RANGE = (200, 300)
    #: Inputs generated up front; a window ends early if it runs out.
    max_ops = 96

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = [self._make_input(derive_seed(seed, _DATA, index))
                       for index in range(self.max_ops)]
        self.warm_input = self._make_input(derive_seed(seed, _WARM))

    def _make_input(self, seed: int):
        low, high = self.TARGET_RANGE
        target = low + derive_seed(seed, _TARGET) % (high - low + 1)
        points = planted_cluster(n=self.N, d=self.D,
                                 cluster_size=int(1.5 * target),
                                 cluster_radius=self.RADIUS, rng=seed).points
        return points, target

    def build(self) -> None:
        pass

    def warm(self) -> None:
        points, target = self.warm_input
        one_cluster(points, target, PARAMS, rng=derive_seed(self.seed, _WARM))

    def begin_window(self, tag: int) -> None:
        pass

    def op(self, client: int, index: int, seed: int) -> OpRecord:
        points, target = self.inputs[index]
        record = OpRecord(client, index, seed, submitted=time.monotonic())
        try:
            result = one_cluster(points, target, PARAMS, rng=seed)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            return _fail(record, error)
        return _finish(record, one_cluster_fingerprint(result))

    def pool_counters(self) -> Optional[Dict[str, int]]:
        return None

    def recompute(self, record: OpRecord) -> dict:
        """The same release on the tree backend instead of the auto-picked
        chunked one."""
        points, target = self.inputs[record.index]
        return one_cluster_fingerprint(one_cluster(
            points, target, PARAMS, rng=record.seed, backend="tree"))

    def stamp(self) -> dict:
        return {"backend": auto_backend(self.N, self.D), "n": self.N,
                "d": self.D, "targets": list(self.TARGET_RANGE)}

    def close(self) -> None:
        pass


class SampleAggregate:
    """One client; each op is the Section-6 private mean estimator with the
    default 1-cluster aggregator over a resident 2-worker sharded backend."""

    name = "sample_aggregate"
    clients = 1
    max_ops: Optional[int] = None
    N, D, BLOCK, WORKERS = 20000, 8, 40, 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        generator = np.random.default_rng(derive_seed(seed, _DATA))
        self.data = generator.normal(0.5, 0.1, size=(self.N, self.D))
        self.backend: Optional[ShardedBackend] = None

    def _release(self, seed: int, backend):
        return private_mean_estimator(self.data, self.BLOCK, PARAMS, rng=seed,
                                      subsample_fraction=1.0, backend=backend)

    def build(self) -> None:
        self.backend = ShardedBackend(self.data, num_workers=self.WORKERS)

    def warm(self) -> None:
        self._release(derive_seed(self.seed, _WARM), self.backend)

    def begin_window(self, tag: int) -> None:
        pass

    def op(self, client: int, index: int, seed: int) -> OpRecord:
        record = OpRecord(client, index, seed, submitted=time.monotonic())
        try:
            result = self._release(seed, self.backend)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            return _fail(record, error)
        record.extra["blocks"] = result.num_blocks
        return _finish(record, stable_point_fingerprint(result))

    def pool_counters(self) -> Optional[Dict[str, int]]:
        return _pool_counters(self.backend)

    def recompute(self, record: OpRecord) -> dict:
        """The same release on the serial path (no backend)."""
        return stable_point_fingerprint(self._release(record.seed, None))

    def stamp(self) -> dict:
        parallel = self.backend is not None and self.backend.parallel
        return {"backend": "sharded", "workers": self.WORKERS,
                "parallel": parallel, "n": self.N, "d": self.D,
                "blocks": self.N // self.BLOCK}

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None


def verify_sample(workload, records: Sequence[OpRecord],
                  verification: Verification) -> None:
    """Recompute releases spread over each client's timed window through the
    workload's independent path and compare them bit for bit."""
    per_client = max(1, VERIFY_SAMPLE // workload.clients)
    for client in range(workload.clients):
        done = [record for record in records
                if record.client == client and record.ok]
        for position in spread_sample(len(done), per_client):
            record = done[position]
            verification.compare(f"{workload.name} op {record.key}",
                                 record.fingerprint,
                                 workload.recompute(record))


WORKLOADS = {workload.name: workload
             for workload in (ServiceMixed, ColdRelease, SampleAggregate)}
