"""The benchmark's pass/fail check: releases recomputed bit for bit.

A release is reduced to a *fingerprint* — whether a cluster was found, and
the exact IEEE-754 bytes of the radius, the centre and the radius bound —
and the fingerprint of each sampled timed release must equal the one an
independent path (another backend, or the serial path) produces from the
same inputs, target, parameters and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


def _bits(value) -> Optional[str]:
    if value is None:
        return None
    return np.ascontiguousarray(np.asarray(value, dtype=np.float64)).tobytes().hex()


def one_cluster_fingerprint(result) -> dict:
    """Fingerprint of a :class:`repro.OneClusterResult`."""
    return {
        "found": bool(result.found),
        "radius": _bits(result.radius_result.radius),
        "center": _bits(result.center_result.center),
        "radius_bound": _bits(result.center_result.radius_bound),
    }


def stable_point_fingerprint(result) -> dict:
    """Fingerprint of a sample-and-aggregate ``StablePointResult``: its
    released point plus the 1-cluster aggregation behind it."""
    fingerprint = {"found": bool(result.found), "point": _bits(result.point),
                   "num_blocks": int(result.num_blocks)}
    if result.cluster_result is not None:
        inner = one_cluster_fingerprint(result.cluster_result)
        fingerprint.update({key: inner[key]
                            for key in ("radius", "center", "radius_bound")})
    return fingerprint


def differences(expected: dict, actual: dict) -> List[str]:
    """The fingerprint fields on which two releases differ."""
    return sorted(key for key in set(expected) | set(actual)
                  if expected.get(key) != actual.get(key))


@dataclass
class Verification:
    """Outcome of the output check of one run."""

    compared: int = 0
    located: int = 0
    mismatches: List[str] = field(default_factory=list)

    def compare(self, label: str, expected: dict, actual: dict) -> None:
        """Compare one release against its independent recomputation."""
        self.compared += 1
        self.located += bool(expected.get("found"))
        fields = differences(expected, actual)
        if fields:
            self.mismatches.append(f"{label}: differs in {', '.join(fields)}")

    def fail(self, message: str) -> None:
        self.mismatches.append(message)

    @property
    def problems(self) -> List[str]:
        """Every reason the run is not correct (empty when it is)."""
        problems = list(self.mismatches)
        if self.compared == 0:
            problems.append("no release was compared")
        elif self.located == 0:
            problems.append("no compared release located a cluster")
        return problems

    @property
    def ok(self) -> bool:
        return not self.problems


def spread_sample(count: int, size: int) -> List[int]:
    """``size`` evenly spaced indices into ``range(count)`` (first and last
    included), so a check samples the whole timed window."""
    if count <= size:
        return list(range(count))
    return sorted({round(i * (count - 1) / (size - 1)) for i in range(size)})


def check_ledger(verification: Verification, tenant: str, stats: dict,
                 admitted: int, per_query_epsilon: float,
                 per_query_delta: float) -> None:
    """A tenant's ledger holds one entry per admitted query, refused none,
    and its spend is that many queries' worth (float sums compared with a
    relative tolerance, since summation order drifts the last bits)."""
    if stats["queries"] != admitted:
        verification.fail(f"tenant {tenant}: ledger has {stats['queries']} "
                          f"entries for {admitted} admitted queries")
    if stats["refused"] != 0:
        verification.fail(f"tenant {tenant}: {stats['refused']} refusals")
    spent = stats["spent"] or {"epsilon": 0.0, "delta": 0.0}
    for axis, per_query in (("epsilon", per_query_epsilon),
                            ("delta", per_query_delta)):
        expected = admitted * per_query
        if abs(spent[axis] - expected) > 1e-9 * max(expected, 1e-300):
            verification.fail(f"tenant {tenant}: spent {axis} "
                              f"{spent[axis]!r}, expected {expected!r}")


def check_pairs(verification: Verification, first: Sequence,
                second: Sequence) -> None:
    """Ops with the same key in two windows ran the same inputs and seed,
    so they must have released the same bytes (tracing changes nothing)."""
    earlier = {record.key: record for record in first if record.ok}
    for record in second:
        twin = earlier.get(record.key)
        if record.ok and twin is not None:
            fields = differences(twin.fingerprint, record.fingerprint)
            if fields:
                verification.fail(f"op {record.key} traced vs untraced: "
                                  f"differs in {', '.join(fields)}")
