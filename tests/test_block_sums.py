"""The segmented exact-sum query behind one-plan sample-and-aggregate.

``QueryPlan.block_sums(view, rows, block_size)`` returns every block's exact
(correctly-rounded) image sum in one query.  These tests pin:

* **Parity** — on every backend (dense, chunked, tree, serial sharded at
  1/2/7 shards, and in the slow tier a real 2-worker pool), on identity and
  projected views, the result equals per-block
  :func:`~repro.utils.exactsum.exact_column_sums` bit for bit, including
  duplicate rows, shards that select nothing, subnormal / huge / negative /
  ``-0.0`` values, ``block_size=1`` and one block of all rows.
* **The kernel** — the segmented fixed-point partials merge to the same
  totals as the per-segment column kernel (hypothesis fuzz, including
  (key, exponent) groups longer than ``_SEGMENT``), and the shard-side
  waves group whole segments up to ``_WAVE_ENTRIES`` entries.
* **Row validation** — non-integer row arrays are rejected instead of
  being truncated to integers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import _reference
from repro.neighbors import DenseBackend, QueryPlan, ShardedBackend
from repro.neighbors import resolve_backend
from repro.utils.exactsum import (
    _WAVE_ENTRIES,
    exact_column_sums,
    fixed_point_column_partials,
    fixed_point_segment_partials,
    fixed_point_sum,
    merge_column_partials,
    segment_waves,
)


def special_points() -> np.ndarray:
    """A ``(48, 3)`` dataset mixing ordinary, subnormal, huge, negative and
    signed-zero coordinates, so block sums exercise cancellation and every
    exponent range of the fixed-point kernel."""
    rng = np.random.default_rng(4)
    points = rng.normal(size=(48, 3))
    points[3] = [5e-324, -5e-324, 1e-310]
    points[7] = [1e300, -1e300, -0.0]
    points[11] = [-1e300, 1e300, 0.0]
    points[15] = [-0.0, -0.0, -0.0]
    points[19] = [-2.5e-320, 3e-308, -7.0]
    points[23] = [1e300, 1e300, -1e300]
    points[30:34] *= 1e-200
    return points


POINTS = special_points()
MATRIX = np.random.default_rng(5).normal(size=(2, 3))
OFFSET = np.array([0.25, -3.0])

#: ``(rows, block_size)`` cases; 48 rows split 7 shards as ~7 rows each.
CASES = {
    "blocks-of-4": (np.random.default_rng(6).integers(0, 48, size=40), 4),
    "duplicates": (np.array([7, 7, 7, 23, 23, 23, 3, 3, 3, 11, 11, 11]), 3),
    "first-shard-only": (np.array([0, 1, 2, 3, 4, 5, 3, 1]), 2),
    "block-size-one": (np.arange(47, -1, -1), 1),
    "one-block": (np.random.default_rng(7).integers(0, 48, size=30), 30),
    "empty": (np.empty(0, dtype=np.int64), 5),
}


def serial_backends(points):
    return [
        resolve_backend(points, "dense"),
        resolve_backend(points, "chunked"),
        resolve_backend(points, "tree"),
        ShardedBackend(points, num_shards=1, num_workers=0),
        ShardedBackend(points, num_shards=2, num_workers=0),
        ShardedBackend(points, num_shards=7, num_workers=0),
    ]


def expected_block_sums(points, matrix, offset, rows, block_size):
    """Per-block exact column sums of the in-process view's image."""
    view = DenseBackend(points).view(matrix, offset)
    width = view.image_dimension
    blocks = [exact_column_sums(view.image(rows[start:start + block_size]))
              for start in range(0, rows.shape[0], block_size)]
    return np.vstack(blocks) if blocks else np.empty((0, width))


def check_backend(backend):
    for matrix, offset in ((None, None), (MATRIX, OFFSET)):
        view = backend.view(matrix, offset)
        for name, (rows, block_size) in CASES.items():
            expected = expected_block_sums(POINTS, matrix, offset, rows,
                                           block_size)
            plan = QueryPlan()
            slot = plan.block_sums(view, rows, block_size)
            planned = backend.execute(plan)[slot]
            direct = view.block_sums(rows, block_size)
            for got in (planned, direct):
                assert got.dtype == np.float64, name
                assert got.shape == expected.shape, name
                assert got.tobytes() == expected.tobytes(), name


class TestBlockSums:
    @pytest.mark.parametrize("index", range(6))
    def test_bitwise_per_block_exact_sums(self, index):
        backend = serial_backends(POINTS)[index]
        try:
            check_backend(backend)
        finally:
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    @pytest.mark.slow
    def test_bitwise_on_worker_pool(self):
        with ShardedBackend(POINTS, num_shards=4, num_workers=2) as backend:
            check_backend(backend)
            assert backend.parallel

    @pytest.mark.parametrize("matrix", [[[1e10, 0.0, 0.0]],
                                        [[1e10, 1e10, 0.0]],
                                        [[-1e10, 0.0, 0.0]]])
    def test_non_finite_value_raises(self, matrix):
        """Backends reject non-finite points up front, so a non-finite
        value can only come from a view's image: here row 7's ``±1e300``
        coordinates overflow to ``inf`` / ``-inf`` / ``nan``."""
        for backend in serial_backends(POINTS):
            plan = QueryPlan()
            plan.block_sums(backend.view(np.asarray(matrix)),
                            np.array([1, 7, 2, 3]), 2)
            with pytest.raises(ValueError, match="finite"):
                backend.execute(plan)

    def test_rows_must_split_into_whole_blocks(self):
        backend = DenseBackend(POINTS)
        with pytest.raises(ValueError, match="blocks of 4"):
            QueryPlan().block_sums(backend.view(), np.arange(10), 4)
        with pytest.raises(ValueError):
            QueryPlan().block_sums(backend.view(), np.arange(10), 0)
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            QueryPlan().block_sums(backend.view(), [0, 48], 1)

    def test_small_blocks_share_one_kernel_call_per_wave(self, monkeypatch):
        """Each shard runs one segmented kernel call per wave: 500 blocks
        of 40 rows at width 8 are 160-entry segments, so a 32,768-entry
        wave carries whole runs of them — not one call per block."""
        rng = np.random.default_rng(8)
        points = rng.normal(size=(2000, 8))
        rows = rng.integers(0, 2000, size=20000)
        calls = []
        original = kernels.fixed_point_segment_partials

        def counting(matrix, segments):
            calls.append(matrix.size)
            return original(matrix, segments)

        monkeypatch.setattr(kernels, "fixed_point_segment_partials",
                            counting)
        backend = ShardedBackend(points, num_shards=2, num_workers=0)
        sums = backend.view().block_sums(rows, 40)
        assert sums.shape == (500, 8)
        assert len(calls) < 2 * (20000 * 8 // _WAVE_ENTRIES + 2)
        assert max(calls) <= _WAVE_ENTRIES
        monkeypatch.undo()
        assert np.array_equal(sums, DenseBackend(points).view()
                              .block_sums(rows, 40))


class TestSegmentWaves:
    def test_waves_cover_runs_without_splitting(self):
        segments = np.repeat(np.arange(50), np.arange(50) * 7 % 23 + 1)
        for width in (1, 3, 8, 64, 512, 10 ** 6):
            waves = segment_waves(segments, width)
            assert waves[0][0] == 0 and waves[-1][1] == segments.shape[0]
            for (_, high), (low, _) in zip(waves, waves[1:]):
                assert high == low
            for low, high in waves:
                assert low == 0 or segments[low] != segments[low - 1]
                if high < segments.shape[0]:
                    assert segments[high] != segments[high - 1]
                single_run = segments[low] == segments[high - 1]
                assert single_run or (high - low) * width <= _WAVE_ENTRIES

    def test_wide_segments_go_one_per_wave(self):
        """A segment wider than the wave limit is a wave of its own."""
        segments = np.repeat(np.arange(4), 400)
        assert segment_waves(segments, 512) == [
            (0, 400), (400, 800), (800, 1200), (1200, 1600)]

    def test_empty(self):
        assert segment_waves(np.empty(0, dtype=np.int64), 8) == []


@st.composite
def segmented_matrices(draw):
    """A seeded ``(q, k)`` matrix with per-row segment ids.  Segment sizes
    reach past 1024 rows of one repeated value, so some (key, exponent)
    groups span several ``_SEGMENT``-long limbs."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    sizes = draw(st.lists(st.integers(0, 1300), min_size=1, max_size=4))
    k = draw(st.integers(1, 3))
    grouped = draw(st.booleans())
    rng = np.random.default_rng(seed)
    q = int(sum(sizes))
    pool = np.array([0.75, -0.6, 5e-324, -1e-310, 1e300, -1e300, -0.0,
                     0.0, 3.0, 1e-200])
    matrix = np.where(rng.random((q, k)) < 0.5,
                      rng.choice(pool, size=(q, k)),
                      rng.normal(size=(q, k))
                      * 10.0 ** rng.integers(-300, 300, size=(q, k)))
    segments = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    if not grouped:
        segments = rng.permutation(segments)
    return matrix, segments, len(sizes), k


class TestSegmentedKernel:
    @settings(max_examples=40, deadline=None)
    @given(case=segmented_matrices())
    def test_merged_totals_match_column_kernel(self, case):
        matrix, segments, num_segments, k = case
        limbs, shifts, keys = fixed_point_segment_partials(matrix, segments)
        assert limbs.dtype == shifts.dtype == keys.dtype == np.int64
        totals = merge_column_partials(num_segments * k,
                                       [(limbs, shifts, keys)])
        for segment in range(num_segments):
            block = matrix[segments == segment]
            expected = merge_column_partials(
                k, [fixed_point_column_partials(block)])
            assert totals[segment * k:(segment + 1) * k] == expected
            assert expected == [fixed_point_sum(block[:, column])
                                for column in range(k)]

    def test_long_groups_split_into_bounded_limbs(self):
        """1,500 equal mantissas of one (key, exponent) group need three
        limbs; each stays within int64."""
        matrix = np.full((1500, 1), 0.75)
        limbs, shifts, keys = _reference.fixed_point_segment_partials(
            matrix, np.zeros(1500, dtype=np.int64))
        assert limbs.shape[0] == 3
        assert merge_column_partials(1, [(limbs, shifts, keys)]) == [
            fixed_point_sum(matrix)]

    def test_segment_ids_must_match_rows(self):
        with pytest.raises(ValueError, match="one segment id per row"):
            fixed_point_segment_partials(np.ones((3, 2)), [0, 0])
        with pytest.raises(ValueError, match="finite"):
            fixed_point_segment_partials(np.array([[np.nan]]), [0])


class TestRowIndexDtype:
    """Float row arrays used to be cast to int64 — silently truncating
    ``[1.7, 2.2]`` to rows 1 and 2, and letting ``-0.5`` past the
    negative-index check as row 0."""

    BAD_ROWS = (np.array([1.7, 2.2]), np.array([-0.5, 3.0]),
                np.array([1.0, 2.0]), np.array([True, False, True]))

    @pytest.mark.parametrize("index", range(3))
    def test_masked_queries_reject_float_rows(self, index):
        backend = [DenseBackend(POINTS),
                   ShardedBackend(POINTS, num_shards=2, num_workers=0),
                   ShardedBackend(POINTS, num_shards=7, num_workers=0)][index]
        view = backend.view()
        for rows in self.BAD_ROWS[:3]:
            with pytest.raises(TypeError, match="integer index array"):
                view.masked_sum(rows)
            with pytest.raises(TypeError, match="integer index array"):
                view.masked_count(rows)
            with pytest.raises(TypeError, match="integer index array"):
                view.axis_interval_labels(1.0, rows=rows)

    def test_block_sums_and_images_reject_non_integer_rows(self):
        view = DenseBackend(POINTS).view()
        for rows in self.BAD_ROWS:
            with pytest.raises(TypeError, match="integer index array"):
                QueryPlan().block_sums(view, rows, 1)
            with pytest.raises(TypeError, match="integer index array"):
                view.image(rows)

    def test_integer_and_empty_rows_still_accepted(self):
        for backend in (DenseBackend(POINTS),
                        ShardedBackend(POINTS, num_shards=3, num_workers=0)):
            view = backend.view()
            rows = np.array([1, 2], dtype=np.int32)
            assert np.array_equal(view.masked_sum(rows),
                                  exact_column_sums(POINTS[[1, 2]]))
            assert np.array_equal(view.masked_sum([]), np.zeros(3))
            assert view.masked_count(np.array([], dtype=float)) == 0
