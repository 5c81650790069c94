"""Exact, partition-independent summation of float64 values.

The library's central invariant — the neighbor-backend choice never moves a
byte of any release — extends in this PR to *floating-point aggregates*:
GoodCenter's NoisyAVG stage now consumes masked sums that shards computed
independently.  Plain float addition cannot keep that promise: it is not
associative, so a sum split across 2 shards and the same sum split across 7
shards round differently in the last ulp.  This module solves it by summing
in **exact fixed-point integers**:

* every finite ``float64`` is an integer multiple of ``2**-1074`` (the
  smallest subnormal), so ``x * 2**1074`` is an exact Python integer of at
  most ~2100 bits;
* integer addition is exact and associative, so per-shard partial sums merge
  into the same total no matter how the rows were partitioned or in which
  order the partials arrive;
* the single final conversion back to ``float64`` (``int / int`` true
  division, correctly rounded in CPython) yields the correctly-rounded sum —
  a *canonical* value every code path reproduces bit-for-bit.

The kernel is vectorised: ``np.frexp`` splits all values at once, mantissas
sharing an exponent are grouped and summed with ``np.add.reduceat`` in
segments short enough that the ``int64`` partials cannot overflow
(``512 * 2**53 < 2**63``), and only the per-segment fold runs in Python — a
few thousand big-int operations for a million inputs.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

import numpy as np

from repro import kernels

#: Every finite float64 is an integer multiple of ``2**-SCALE_BITS``.
SCALE_BITS = 1074

#: ``2**SCALE_BITS``, the divisor that converts a fixed-point total back.
_SCALE = 1 << SCALE_BITS

#: ``2**53`` — scaling a frexp mantissa (``0.5 <= |m| < 1``) by this yields
#: an exact integer with at most 53 bits.
_MANTISSA_SCALE = float(1 << 53)

#: Longest ``np.add.reduceat`` segment: ``512 * 2**53 < 2**63`` guarantees
#: the int64 segment sums cannot overflow.
_SEGMENT = 512

#: Most matrix entries (rows × width) one segmented kernel call covers:
#: consecutive row segments are grouped into waves of whole segments up to
#: this size, so a wave's gathered rows and the kernel's integer temporaries
#: stay cache-resident.  A segment wider than this is a wave on its own.
_WAVE_ENTRIES = 32768


def fixed_point_sum(values) -> int:
    """The exact sum of float64 ``values`` in units of ``2**-SCALE_BITS``.

    Parameters
    ----------
    values:
        Array-like of finite floats (any shape; summed over all elements).

    Returns
    -------
    int
        ``sum(values) * 2**SCALE_BITS`` as an exact (arbitrary-precision)
        integer.  Partials from disjoint subsets merge by plain integer
        addition — exactly, in any order or grouping.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return 0
    if not np.all(np.isfinite(values)):
        raise ValueError("exact summation requires finite values")
    mantissas, exponents = np.frexp(values)
    integers = (mantissas * _MANTISSA_SCALE).astype(np.int64)
    # value = integer * 2**(exponent - 53), so in 2**-1074 units the shift is
    # exponent - 53 + 1074.  Subnormals give shifts as low as -52; their
    # mantissa integers are divisible by the deficit, so the right-shift
    # below is exact.
    shifts = exponents.astype(np.int64) + (SCALE_BITS - 53)
    order = np.argsort(shifts, kind="stable")
    integers = integers[order]
    shifts = shifts[order]
    group_starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(shifts)) + 1, [shifts.shape[0]]]
    )
    starts: List[int] = []
    for index in range(group_starts.shape[0] - 1):
        starts.extend(range(int(group_starts[index]),
                            int(group_starts[index + 1]), _SEGMENT))
    segment_sums = np.add.reduceat(integers, np.asarray(starts, dtype=np.int64))
    total = 0
    for start, segment in zip(starts, segment_sums):
        shift = int(shifts[start])
        value = int(segment)
        total += value << shift if shift >= 0 else value >> -shift
    return total


def fixed_point_column_partials(
    matrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column exact fixed-point partials as ``(limb, shift, column)``
    int64 arrays.

    Entry ``i`` contributes ``limbs[i] * 2**shifts[i]`` (in
    ``2**-SCALE_BITS`` units) to column ``columns[i]``'s total; folding a
    column's entries with exact integer arithmetic
    (:func:`merge_column_partials`) yields the identical canonical total as
    :func:`fixed_point_sum` of that column.  Unlike the big-int partials,
    these are fixed-width integer arrays — cheap to pickle across the
    sharded backend's process boundary and producible by the compiled
    kernel (:func:`repro.kernels.fixed_point_column_partials`, to which
    this validated wrapper dispatches).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise ValueError("exact summation requires finite values")
    return kernels.fixed_point_column_partials(matrix)


def fixed_point_segment_partials(
    matrix, segments,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact fixed-point partials per (row segment, column) as ``(limb,
    shift, key)`` int64 arrays, ``key = segment * k + column``.

    The segmented generalisation of :func:`fixed_point_column_partials`
    (which is its one-segment case): folding the entries of key
    ``s * k + j`` with :func:`merge_column_partials` yields
    :func:`fixed_point_sum` of column ``j`` over the rows of segment ``s``,
    bit for bit.  Validated wrapper around
    :func:`repro.kernels.fixed_point_segment_partials`.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    segments = np.asarray(segments, dtype=np.int64).reshape(-1)
    if segments.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"expected one segment id per row ({matrix.shape[0]}), got "
            f"{segments.shape[0]}"
        )
    if segments.size and int(segments.min()) < 0:
        raise ValueError("segment ids must be non-negative")
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise ValueError("exact summation requires finite values")
    return kernels.fixed_point_segment_partials(matrix, segments)


def segment_waves(segments, width: int) -> List[Tuple[int, int]]:
    """``[lo, hi)`` position ranges grouping consecutive runs of equal
    ``segments`` into waves of at most :data:`_WAVE_ENTRIES` entries
    (rows × ``width``).  Waves never split a run; a run larger than the
    limit forms a wave by itself."""
    segments = np.asarray(segments).reshape(-1)
    length = segments.shape[0]
    ends = np.append(np.flatnonzero(np.diff(segments)) + 1, length)
    capacity = max(1, _WAVE_ENTRIES // max(1, int(width)))
    waves = []
    low = 0
    while low < length:
        index = int(np.searchsorted(ends, low + capacity, side="right")) - 1
        if index < 0 or ends[index] <= low:
            index = int(np.searchsorted(ends, low, side="right"))
        high = int(ends[index])
        waves.append((low, high))
        low = high
    return waves


def segment_partials(image: Callable[[int, int], np.ndarray], segments,
                     width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segmented partials of a ``(q, width)`` matrix, computed one wave
    (:func:`segment_waves`) at a time.

    ``image(lo, hi)`` returns rows ``lo:hi`` of the matrix, so a caller
    gathers (and projects) only one wave's rows at a time.  The per-wave
    partials are concatenated into one ``(limbs, shifts, keys)`` triple.
    """
    segments = np.asarray(segments, dtype=np.int64).reshape(-1)
    parts = [fixed_point_segment_partials(image(low, high),
                                          segments[low:high])
             for low, high in segment_waves(segments, width)]
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def segment_sums(num_segments: int, num_columns: int,
                 partials: Iterable) -> np.ndarray:
    """Fold segmented ``(limbs, shifts, keys)`` partials into the
    ``(num_segments, num_columns)`` correctly-rounded sums.  Like every
    fold here, the result is independent of how the rows were split across
    partials and of the fold order."""
    totals = merge_column_partials(int(num_segments) * int(num_columns),
                                   partials)
    return np.asarray([fixed_point_to_float(total) for total in totals],
                      dtype=float).reshape(int(num_segments),
                                           int(num_columns))


def merge_column_partials(num_columns: int, partials: Iterable) -> List[int]:
    """Fold ``(limbs, shifts, columns)`` partials into per-column exact
    big-int totals.

    Integer addition is exact and associative, so the totals are independent
    of how the rows were partitioned across partials, of each partial's
    internal decomposition (reference and native kernels emit different but
    equivalent ones), and of the fold order.  Negative shifts only arise
    from subnormal limbs, whose mantissa integers are divisible by the
    deficit — the right-shift is exact (same argument as
    :func:`fixed_point_sum`).
    """
    totals = [0] * int(num_columns)
    for limbs, shifts, columns in partials:
        for limb, shift, column in zip(np.asarray(limbs).tolist(),
                                       np.asarray(shifts).tolist(),
                                       np.asarray(columns).tolist()):
            totals[column] += limb << shift if shift >= 0 else limb >> -shift
    return totals


def fixed_point_column_sums(matrix) -> List[int]:
    """Per-column :func:`fixed_point_sum` of a ``(q, k)`` matrix.

    Empty inputs give ``k`` zeros (``(0, k)``) — the identity partial an
    empty shard contributes.  Routed through the dispatched partials kernel
    (:func:`fixed_point_column_partials`); the fold reconstructs the same
    canonical per-column totals as summing each column directly.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    return merge_column_partials(
        matrix.shape[1], [fixed_point_column_partials(matrix)]
    )


def merge_fixed_point(partials: Iterable) -> List[int]:
    """Fold per-shard column partials (iterables of ints) by exact integer
    addition.  Associative and order-independent by construction; the sharded
    backend still folds in deterministic shard order so the merge is easy to
    audit."""
    totals: List[int] = []
    for partial in partials:
        if not totals:
            totals = [int(value) for value in partial]
            continue
        if len(partial) != len(totals):
            raise ValueError("column partials have mismatched widths")
        totals = [total + int(value) for total, value in zip(totals, partial)]
    return totals


def fixed_point_to_float(total: int) -> float:
    """The correctly-rounded ``float64`` value of a fixed-point total.

    ``int / int`` true division is correctly rounded in CPython, so this is
    the canonical (partition-independent) rounding of the exact sum.
    """
    try:
        return total / _SCALE
    except OverflowError:  # pragma: no cover - astronomically large sums
        return float("inf") if total > 0 else float("-inf")


def exact_column_sums(matrix) -> np.ndarray:
    """Correctly-rounded per-column sums of a ``(q, k)`` float matrix.

    The convenience composition of :func:`fixed_point_column_sums` and
    :func:`fixed_point_to_float`: the value every backend's masked-sum query
    returns, and the value :func:`repro.mechanisms.noisy_average.noisy_average`
    feeds its selected-average — one definition, so the in-parent and
    shard-merged paths cannot drift apart.
    """
    return np.asarray([
        fixed_point_to_float(total)
        for total in fixed_point_column_sums(matrix)
    ], dtype=float)


__all__ = [
    "SCALE_BITS",
    "exact_column_sums",
    "fixed_point_column_partials",
    "fixed_point_column_sums",
    "fixed_point_segment_partials",
    "fixed_point_sum",
    "fixed_point_to_float",
    "merge_column_partials",
    "merge_fixed_point",
    "segment_partials",
    "segment_sums",
    "segment_waves",
]
