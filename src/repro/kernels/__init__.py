"""Hot-kernel dispatch: native (numba) vs pure-python, chosen at import.

The profile of the 1-cluster pipeline is dominated by three row-decomposable
kernels — the blocked squared-distance slab, the grid hash / interval
labelling behind box histograms, and the exact fixed-point summation behind
masked aggregates.  This package provides two interchangeable
implementations of each:

* :mod:`repro.kernels._reference` — the pure-python (numpy/scipy) versions.
  These are the *defining* implementations: every released value of the
  library is specified by what they compute.
* :mod:`repro.kernels._native` — numba ``@njit`` versions that reproduce the
  reference **bit for bit** by construction: the distance slab accumulates
  per-pair squared terms left-to-right in axis order (exactly scipy
  ``cdist``'s accumulation), the grid hash applies the identical
  subtract/divide/floor/int64-cast scalar sequence, and the fixed-point
  column sum emits integer partials whose exact integer merge is the same
  canonical total as :mod:`repro.utils.exactsum`.  The segmented
  (per row-segment) fixed-point kernel has only the reference
  implementation; both modes dispatch to it.

Selection happens once, at import time:

* ``REPRO_KERNELS=python`` — force the reference kernels (numba never
  imported).
* ``REPRO_KERNELS=native`` — require the native kernels; if numba is
  missing, a warning is emitted and the reference kernels are used.
* unset — native when numba is importable, reference otherwise (no
  warning; absence of an optional accelerator is not an error).

Because the choice is made at import and both modes compute bitwise
identical values, no released byte ever depends on ``REPRO_KERNELS`` — the
parity suites are re-run under both modes to enforce exactly that.

Worker processes of the sharded backend import this package like any other
(the environment variable is inherited across both fork and spawn), so the
shard-side masked aggregates and grid hashes ride the same kernels as the
parent.
"""

from __future__ import annotations

import os
import warnings

from repro.kernels import _reference

#: The values ``REPRO_KERNELS`` accepts.
KERNEL_MODES = ("native", "python")

#: Environment variable read once at import to pick the kernel set.
KERNEL_ENV_VAR = "REPRO_KERNELS"


def _requested_mode() -> str:
    value = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
    if not value:
        return "auto"
    if value not in KERNEL_MODES:
        raise ValueError(
            f"{KERNEL_ENV_VAR}={value!r} is not a valid kernel mode; "
            f"expected one of {KERNEL_MODES} (or unset for automatic "
            f"selection)"
        )
    return value


def _load_native(requested: bool):
    """Try to import the native kernel set; explain failures when forced."""
    try:
        from repro.kernels import _native
    except ImportError as error:
        if requested:
            warnings.warn(
                f"REPRO_KERNELS=native but numba is unavailable ({error}); "
                "falling back to the pure-python kernels (install the "
                "'native' extra: pip install -e .[native])",
                RuntimeWarning,
                stacklevel=3,
            )
        return None
    return _native


_MODE_REQUESTED = _requested_mode()
_IMPL = None
if _MODE_REQUESTED != "python":
    _IMPL = _load_native(requested=_MODE_REQUESTED == "native")

#: Whether the numba-compiled kernel set is active.
HAVE_NATIVE = _IMPL is not None
if _IMPL is None:
    _IMPL = _reference

#: The active kernel mode: ``"native"`` or ``"python"``.
KERNEL_MODE = "native" if HAVE_NATIVE else "python"

# The dispatched kernels.  Call sites go through these names so the whole
# library — parent and shard workers alike — rides one kernel set.
squared_distance_slab = _IMPL.squared_distance_slab
squared_distance_gather = _IMPL.squared_distance_gather
fused_box_labels = _IMPL.fused_box_labels
fused_interval_labels = _IMPL.fused_interval_labels
fixed_point_column_partials = _IMPL.fixed_point_column_partials
# The native set has no segmented kernel; both modes run the reference one
# (its merged totals are canonical, so no released bit depends on it).
fixed_point_segment_partials = _reference.fixed_point_segment_partials


def kernel_info() -> dict:
    """The active kernel configuration (for ``pool_stats`` and benchmarks)."""
    return {
        "mode": KERNEL_MODE,
        "requested": _MODE_REQUESTED,
    }


__all__ = [
    "HAVE_NATIVE",
    "KERNEL_ENV_VAR",
    "KERNEL_MODE",
    "KERNEL_MODES",
    "fixed_point_column_partials",
    "fixed_point_segment_partials",
    "fused_box_labels",
    "fused_interval_labels",
    "kernel_info",
    "squared_distance_gather",
    "squared_distance_slab",
]
