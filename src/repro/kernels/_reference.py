"""Pure-python (numpy/scipy) hot kernels — the defining implementations.

Every function here is the bit-level *specification* its native counterpart
in :mod:`repro.kernels._native` must reproduce.  The bodies are the exact
numpy expressions the library used before kernel dispatch existed, moved
here so both kernel sets live behind one import seam
(:mod:`repro.kernels`).

This module must not import anything from :mod:`repro` outside the kernels
package: the modules it accelerates (``repro.neighbors._distance``,
``repro.geometry.boxes``, ``repro.utils.exactsum``) import *it*.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.spatial.distance import cdist

#: Every finite float64 is an integer multiple of ``2**-SCALE_BITS``
#: (mirrors :data:`repro.utils.exactsum.SCALE_BITS`; kept local because
#: exactsum imports this package).
SCALE_BITS = 1074

#: ``2**53`` — scaling a frexp mantissa (``0.5 <= |m| < 1``) by this yields
#: an exact integer with at most 53 bits.
_MANTISSA_SCALE = float(1 << 53)

#: Longest summation segment: ``512 * 2**53 < 2**63`` guarantees the int64
#: segment sums cannot overflow.
_SEGMENT = 512

#: Fixed-point shifts of finite float64 values lie in ``[-52, 2045]``; the
#: segmented kernel packs ``(column, segment, shift)`` into one int64 sort
#: key as ``(column * segments + segment) * _SHIFT_SPAN + shift +
#: _SHIFT_BIAS``.
_SHIFT_BIAS = 52
_SHIFT_SPAN = 4096


def squared_distance_slab(queries: np.ndarray,
                          data: np.ndarray) -> np.ndarray:
    """Exact ``(q, n)`` squared Euclidean distances, by direct differencing.

    scipy's ``cdist`` accumulates ``(x_a - y_a)^2`` left-to-right over the
    axes — the order the native kernel replicates term for term.
    """
    return cdist(queries, data, metric="sqeuclidean")


def squared_distance_gather(queries: np.ndarray,
                            neighbors: np.ndarray) -> np.ndarray:
    """Squared distances from each query to its own ``(q, k, d)`` candidate
    set, translate-to-origin (see
    :func:`repro.neighbors._distance.squared_distance_gather` for why this
    is bitwise the slab kernel's value)."""
    difference = neighbors - queries[:, None, :]
    q, k, d = difference.shape
    flat = np.ascontiguousarray(difference.reshape(q * k, d))
    return cdist(flat, np.zeros((1, d)), metric="sqeuclidean").reshape(q, k)


def fused_box_labels(points: np.ndarray, shifts: np.ndarray,
                     width: float) -> np.ndarray:
    """The grid hash ``floor((x - shift) / width)`` as ``(n, k)`` int64.

    One scalar sequence per coordinate — subtract, divide, floor, cast —
    which is what the native kernel fuses into a single pass (no
    intermediate ``(n, k)`` float temporaries).
    """
    return np.floor((points - shifts[None, :]) / width).astype(np.int64)


def fused_interval_labels(values: np.ndarray, width: float,
                          offset: float = 0.0) -> np.ndarray:
    """Elementwise interval hash ``floor((v - offset) / width)`` (any shape)."""
    return np.floor((values - offset) / width).astype(np.int64)


def fixed_point_segment_partials(
    matrix: np.ndarray, segments: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact fixed-point partial sums of a ``(q, k)`` float matrix per
    (row segment, column), as integer arrays.

    Row ``i`` belongs to segment ``segments[i]``.  Every segment's
    per-column exact sum (in ``2**-SCALE_BITS`` units, see
    :mod:`repro.utils.exactsum`) is decomposed into ``(limb, shift)`` pairs:
    entry ``j`` contributes ``limbs[j] * 2**shifts[j]`` to the total under
    key ``keys[j] = segment * k + column``.  Each limb is a sum of at most
    ``_SEGMENT`` 53-bit mantissa integers sharing one (key, exponent)
    group, so it fits int64 with headroom — the whole partial is plain
    fixed-width integers, picklable without arbitrary-precision payloads and
    producible by a compiled kernel.

    The decomposition itself is *not* canonical (the native column kernel
    emits a different but equivalent one); the **merged total** per key —
    ``sum(limbs[j] << shifts[j])`` over the key's entries, exact integer
    arithmetic — is canonical, and equals
    :func:`repro.utils.exactsum.fixed_point_sum` of that segment's column
    bit for bit.

    Returns
    -------
    (limbs, shifts, keys):
        Equal-length ``int64`` arrays (empty for an empty matrix).
    """
    matrix = np.asarray(matrix, dtype=float)
    q, k = matrix.shape
    empty = np.empty(0, dtype=np.int64)
    if q == 0 or k == 0:
        return empty, empty, empty
    segments = np.asarray(segments, dtype=np.int64)
    num_segments = int(segments.max()) + 1
    # Column-major: a column's entries are contiguous, so the sort key below
    # arrives presorted by column (and by segment, for grouped segments).
    mantissas, exponents = np.frexp(np.ascontiguousarray(matrix.T))
    integers = (mantissas * _MANTISSA_SCALE).astype(np.int64).reshape(-1)
    shifts = exponents.astype(np.int64) + (SCALE_BITS - 53 + _SHIFT_BIAS)
    # Group by (column, segment, shift) with one sort of the packed triple.
    # The order inside a group only picks which mantissas share a limb,
    # never the merged total.
    groups = (np.arange(k, dtype=np.int64)[:, None] * num_segments
              + segments[None, :])
    packed = (groups * _SHIFT_SPAN + shifts).reshape(-1)
    order = np.argsort(packed)
    packed = packed[order]
    integers = integers[order]
    group_starts = np.concatenate([[0], np.flatnonzero(np.diff(packed)) + 1])
    group_sizes = np.diff(np.append(group_starts, packed.shape[0]))
    # Split every group into runs of at most _SEGMENT entries: run j of a
    # group starts j * _SEGMENT entries past the group's start.
    runs = (group_sizes + _SEGMENT - 1) // _SEGMENT
    first_run = np.cumsum(runs) - runs
    run_index = np.arange(int(runs.sum()), dtype=np.int64)
    starts = (np.repeat(group_starts, runs)
              + _SEGMENT * (run_index - np.repeat(first_run, runs)))
    limbs = np.add.reduceat(integers, starts).astype(np.int64)
    group, shift = np.divmod(packed[starts], _SHIFT_SPAN)
    column, segment = np.divmod(group, num_segments)
    return limbs, shift - _SHIFT_BIAS, segment * k + column


def fixed_point_column_partials(
    matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact fixed-point partial sums of a ``(q, k)`` float matrix per
    column: the one-segment case of :func:`fixed_point_segment_partials`,
    whose keys are then the column indices.

    Returns
    -------
    (limbs, shifts, columns):
        Equal-length ``int64`` arrays (empty for an empty matrix).
    """
    matrix = np.asarray(matrix, dtype=float)
    return fixed_point_segment_partials(
        matrix, np.zeros(matrix.shape[0], dtype=np.int64)
    )
