"""The kernel dispatch layer: bitwise parity, exactness, import-time modes.

Three contracts are pinned here:

* **Bitwise parity.**  The native (numba) kernels must reproduce the
  pure-python reference kernels *bit for bit* on an adversarial zoo —
  duplicates, colinear points, denormals, signed zeros, huge/mixed scales,
  empty and singleton slabs — because every released value of the library is
  defined by the reference and ``REPRO_KERNELS`` must never move a byte.
  (Skipped when numba is not installed; CI runs it under the ``native``
  extra.)
* **Exact partials.**  ``fixed_point_column_partials`` is allowed to choose
  *any* decomposition into integer ``(limb, shift, column)`` triples, but the
  merged integer total per column must equal the canonical
  ``fixed_point_sum`` of that column — for any split of the rows, in any
  merge order.
* **Import-time selection.**  ``REPRO_KERNELS=python`` forces the reference
  set, ``=native`` falls back (with a warning) when numba is missing, an
  invalid value raises, and the default is silent auto-detection.  These
  run in subprocesses: the choice is made once at import.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.kernels as kernels
from repro.kernels import _reference
from repro.utils.exactsum import (
    fixed_point_column_partials,
    fixed_point_column_sums,
    fixed_point_sum,
    fixed_point_to_float,
    merge_column_partials,
)

try:  # pragma: no cover - environment probe
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - environment probe
    HAVE_NUMBA = False

needs_native = pytest.mark.skipif(
    not kernels.HAVE_NATIVE,
    reason="native kernels unavailable (numba missing)",
)


def zoo_cases():
    """(name, queries, data) pairs built to break sloppy float kernels."""
    rng = np.random.default_rng(11)
    tiny = 5e-324                                   # smallest subnormal
    cases = [
        ("generic", rng.normal(size=(7, 3)), rng.normal(size=(5, 3))),
        ("high-dim", rng.normal(size=(3, 17)), rng.normal(size=(4, 17))),
        ("duplicates",
         np.repeat(rng.normal(size=(1, 4)), 6, axis=0),
         np.repeat(rng.normal(size=(1, 4)), 3, axis=0)),
        ("colinear",
         np.outer(np.arange(8.0), np.array([1.0, 2.0, -0.5])),
         np.outer(np.arange(5.0) - 2.0, np.array([1.0, 2.0, -0.5]))),
        ("denormal",
         np.array([[tiny, -tiny, 1e-310], [0.0, 2.2e-308, -1e-320]]),
         np.array([[0.0, 0.0, 0.0], [1e-310, -tiny, tiny]])),
        ("signed-zero",
         np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]),
         np.array([[-0.0, -0.0], [0.0, 0.0]])),
        ("mixed-scale",
         np.array([[1e150, 1e-150, 1.0], [-1e150, 3.0, 1e-300]]),
         np.array([[1e150, 0.0, -1.0], [7.0, -1e-150, 0.5]])),
        ("empty-queries", np.empty((0, 3)), rng.normal(size=(4, 3))),
        ("empty-data", rng.normal(size=(4, 3)), np.empty((0, 3))),
        ("singleton", rng.normal(size=(1, 5)), rng.normal(size=(1, 5))),
    ]
    return cases


def assert_bitwise(got, expected, label):
    got = np.asarray(got)
    expected = np.asarray(expected)
    assert got.shape == expected.shape, label
    assert got.dtype == expected.dtype, label
    assert got.tobytes() == expected.tobytes(), label


class TestReferenceExactness:
    """The reference partials against the canonical big-int column sums."""

    def matrices(self):
        rng = np.random.default_rng(5)
        tiny = 5e-324
        return [
            ("generic", rng.normal(size=(37, 4))),
            ("duplicates", np.repeat(rng.normal(size=(1, 3)), 20, axis=0)),
            ("denormal", np.array([[tiny, -tiny], [1e-310, 0.0],
                                   [-0.0, 3e-320]])),
            ("mixed-scale", rng.normal(size=(600, 2)) *
             10.0 ** rng.integers(-200, 200, size=(600, 2))),
            ("cancellation", np.array([[1e16, 1.0], [-1e16, -1.0],
                                       [1.0, 1e-8]])),
            ("single-row", rng.normal(size=(1, 6))),
            ("empty", np.empty((0, 3))),
        ]

    @pytest.mark.parametrize("case", range(7))
    def test_partials_merge_to_canonical_sums(self, case):
        name, matrix = self.matrices()[case]
        limbs, shifts, columns = fixed_point_column_partials(matrix)
        assert limbs.dtype == shifts.dtype == columns.dtype == np.int64
        totals = merge_column_partials(matrix.shape[1],
                                       [(limbs, shifts, columns)])
        expected = [fixed_point_sum(matrix[:, j])
                    for j in range(matrix.shape[1])]
        assert totals == expected, name
        assert fixed_point_column_sums(matrix) == expected, name

    @pytest.mark.parametrize("splits", [1, 2, 3, 7])
    def test_any_row_split_merges_identically(self, splits):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(101, 3)) * 10.0 ** rng.integers(
            -100, 100, size=(101, 3)
        )
        whole = merge_column_partials(3, [fixed_point_column_partials(matrix)])
        bounds = np.linspace(0, matrix.shape[0], splits + 1).astype(int)
        parts = [fixed_point_column_partials(matrix[a:b])
                 for a, b in zip(bounds[:-1], bounds[1:])]
        assert merge_column_partials(3, parts) == whole
        assert merge_column_partials(3, parts[::-1]) == whole

    def test_merged_totals_round_trip_to_float(self):
        matrix = np.array([[0.1, 1e-300], [0.2, 5e-324], [0.3, -1e-310]])
        totals = merge_column_partials(2, [fixed_point_column_partials(matrix)])
        for j in range(2):
            assert fixed_point_to_float(totals[j]) == math.fsum(matrix[:, j])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fixed_point_column_partials(np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError, match="finite"):
            fixed_point_column_partials(np.array([[np.nan, 0.0]]))


@needs_native
class TestNativeBitwiseParity:
    """Native kernels == reference kernels, byte for byte, on the zoo."""

    @pytest.mark.parametrize("case", range(len(zoo_cases())))
    def test_distance_slab(self, case):
        from repro.kernels import _native

        name, queries, data = zoo_cases()[case]
        got = _native.squared_distance_slab(queries, data)
        expected = _reference.squared_distance_slab(queries, data)
        assert_bitwise(got, expected, name)

    @pytest.mark.parametrize("case", range(len(zoo_cases())))
    def test_distance_gather(self, case):
        from repro.kernels import _native

        name, queries, data = zoo_cases()[case]
        if queries.shape[0] == 0 or data.shape[0] == 0:
            neighbors = np.empty((queries.shape[0], 0, queries.shape[1]))
        else:
            take = np.resize(np.arange(data.shape[0]),
                             (queries.shape[0], min(3, data.shape[0])))
            neighbors = data[take]
        got = _native.squared_distance_gather(queries, neighbors)
        expected = _reference.squared_distance_gather(queries, neighbors)
        assert_bitwise(got, expected, name)

    def test_boundary_radii_thresholding(self):
        """Counts at radii equal to *exact* pairwise distances cannot differ:
        the slab values themselves are bitwise equal."""
        from repro.kernels import _native

        rng = np.random.default_rng(23)
        queries, data = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        expected = _reference.squared_distance_slab(queries, data)
        got = _native.squared_distance_slab(queries, data)
        assert_bitwise(got, expected, "slab")
        for key in expected.ravel()[:: 7]:
            assert np.array_equal(
                np.count_nonzero(got <= key, axis=1),
                np.count_nonzero(expected <= key, axis=1),
            )

    @pytest.mark.parametrize("case", range(len(zoo_cases())))
    def test_box_labels(self, case):
        from repro.kernels import _native

        name, points, _ = zoo_cases()[case]
        rng = np.random.default_rng(case)
        for width in (0.7, 1e-3, 1e6):
            shifts = rng.uniform(-width, width, size=points.shape[1])
            got = _native.fused_box_labels(points, shifts, width)
            expected = _reference.fused_box_labels(points, shifts, width)
            assert_bitwise(got, expected, f"{name}/width={width}")

    def test_interval_labels_arbitrary_shape(self):
        from repro.kernels import _native

        rng = np.random.default_rng(2)
        values = rng.normal(size=(5, 4)) * 10.0
        for offset in (0.0, -0.3, 2.5):
            got = _native.fused_interval_labels(values, 0.9, offset)
            expected = _reference.fused_interval_labels(values, 0.9, offset)
            assert_bitwise(got, expected, f"offset={offset}")

    @pytest.mark.parametrize("case", range(len(zoo_cases())))
    def test_column_partials_merge_equal(self, case):
        """The decompositions may differ; the merged totals may not."""
        from repro.kernels import _native

        name, matrix, _ = zoo_cases()[case]
        native = _native.fixed_point_column_partials(matrix)
        reference = _reference.fixed_point_column_partials(matrix)
        assert all(np.asarray(part).dtype == np.int64 for part in native)
        k = matrix.shape[1]
        assert (merge_column_partials(k, [native])
                == merge_column_partials(k, [reference])), name

    def test_column_partials_segment_overflow_guard(self):
        """Columns long enough to force multiple 512-entry limb flushes."""
        from repro.kernels import _native

        rng = np.random.default_rng(31)
        matrix = np.full((2000, 2), (2.0 - 2.0 ** -52))    # max mantissas
        matrix[:, 1] = rng.normal(size=2000)
        native = _native.fixed_point_column_partials(matrix)
        reference = _reference.fixed_point_column_partials(matrix)
        assert (merge_column_partials(2, [native])
                == merge_column_partials(2, [reference]))


def run_probe(code, mode=None):
    """Import repro.kernels in a subprocess under a given REPRO_KERNELS."""
    env = dict(os.environ)
    env.pop(kernels.KERNEL_ENV_VAR, None)
    if mode is not None:
        env[kernels.KERNEL_ENV_VAR] = mode
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


PROBE = """
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro.kernels as kernels
relevant = [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "kernels" in str(w.message)]
print(kernels.KERNEL_MODE, kernels.kernel_info()["requested"], len(relevant))
"""


class TestImportTimeSelection:
    """REPRO_KERNELS is honoured (or rejected) once, at import."""

    def test_python_mode_forced(self):
        probe = run_probe(PROBE, mode="python")
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.split() == ["python", "python", "0"]

    def test_native_mode_requires_numba(self):
        probe = run_probe(PROBE, mode="native")
        assert probe.returncode == 0, probe.stderr
        mode, requested, warned = probe.stdout.split()
        assert requested == "native"
        if HAVE_NUMBA:
            assert (mode, warned) == ("native", "0")
        else:
            # The import-time fallback: a RuntimeWarning, then the
            # reference kernels.
            assert (mode, warned) == ("python", "1")

    def test_auto_mode_is_silent(self):
        probe = run_probe(PROBE)
        assert probe.returncode == 0, probe.stderr
        mode, requested, warned = probe.stdout.split()
        assert requested == "auto"
        assert warned == "0"
        assert mode == ("native" if HAVE_NUMBA else "python")

    def test_invalid_mode_rejected(self):
        probe = run_probe("import repro.kernels", mode="fortran")
        assert probe.returncode != 0
        assert "not a valid kernel mode" in probe.stderr

    def test_dispatch_surface(self):
        assert kernels.KERNEL_MODE in kernels.KERNEL_MODES
        info = kernels.kernel_info()
        assert set(info) == {"mode", "requested"}
        assert info["mode"] == kernels.KERNEL_MODE
        if not kernels.HAVE_NATIVE:
            assert (kernels.squared_distance_slab
                    is _reference.squared_distance_slab)
            assert (kernels.fixed_point_column_partials
                    is _reference.fixed_point_column_partials)
