"""Memory guards for the shard-side rotated stage and the bounded merge.

Two promises of the backend path are checked here with real numbers
rather than code inspection:

* at ``n >= 20k`` the *parent* process never materialises an ``O(n * d)``
  (or ``O(|selected| * d)``) rotated copy while GoodCenter runs steps 8-11
  over a pooled sharded backend — tracemalloc sees only the parent, which is
  exactly the asymmetry the shard-side stage buys;
* the heaviest-cell partition search's parent scratch is bounded by
  ``shards * top_k`` candidate cells per attempt, with the exact-recount
  certification keeping the returned maxima bitwise equal to the full merge
  even when the global argmax is in *no* shard's top-k.

Marked ``slow`` (n = 20k work + a real worker pool): these run in the
dedicated ``-m slow`` CI job, not the tier-1 loop.
"""

import tracemalloc

import numpy as np
import pytest

from repro.accounting.params import PrivacyParams
from repro.core.config import GoodCenterConfig
from repro.core.good_center import good_center
from repro.datasets.synthetic import planted_cluster
from repro.neighbors import DenseBackend, ShardedBackend


@pytest.mark.slow
class TestRotatedStageMemoryGuard:
    """Parent peak allocation during a full good_center call, n = 20k."""

    N = 20000
    D = 8
    TARGET = 10000

    @pytest.fixture(scope="class")
    def big_cluster(self):
        return planted_cluster(n=self.N, d=self.D, cluster_size=12000,
                               cluster_radius=0.05, center=[0.5] * self.D,
                               rng=3).points

    def _release(self, points, backend=None):
        # jl_constant=0.3 forces the JL + rotated-axis path at d=8.
        return good_center(points, radius=0.05, target=self.TARGET,
                           params=PrivacyParams(8.0, 1e-5),
                           config=GoodCenterConfig(jl_constant=0.3), rng=5,
                           backend=backend)

    def test_parent_never_holds_rotated_copy(self, big_cluster):
        points = big_cluster
        rotated_copy_bytes = self.TARGET * self.D * 8
        # The in-parent reference holds the selected set and its rotation,
        # so it runs outside the tracemalloc window.
        reference = self._release(points)

        with ShardedBackend(points, num_shards=4, num_workers=2) as backend:
            backend.radius_counts(0.01)  # warm the pool outside the window
            tracemalloc.start()
            try:
                result = self._release(points, backend)
                _, shard_side_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert result.found
        assert result.projected_dimension < self.D     # rotated stage ran
        assert result.captured_count >= self.TARGET
        # Identical release (the parity contract) without the parent ever
        # holding a rotated copy.
        assert np.array_equal(result.center, reference.center)
        assert result.radius_bound == reference.radius_bound
        assert result.captured_count == reference.captured_count
        assert shard_side_peak < rotated_copy_bytes / 2, (
            f"shard-side stage peaked at {shard_side_peak / 1e6:.2f} MB; a "
            f"rotated copy is {rotated_copy_bytes / 1e6:.2f} MB"
        )


class TestHeaviestCellMergeGuard:
    """The bounded top-K merge: bounded worker returns, exact maxima.

    Small-n and serial, so it stays in the tier-1 loop (unlike the 20k
    tracemalloc guard above)."""

    @staticmethod
    def adversarial_points():
        """Two shards whose *global* heaviest cell is in neither shard's
        top-2: cell [0, 1) holds 5 points in each shard (10 globally) while
        six per-shard filler cells hold 6 each."""
        shard1 = np.concatenate([
            np.full(5, 0.5),
            np.repeat(np.arange(1, 7) + 0.5, 6),
        ])
        shard2 = np.concatenate([
            np.full(5, 0.5),
            np.repeat(np.arange(11, 17) + 0.5, 6),
        ])
        return np.concatenate([shard1, shard2]).reshape(-1, 1)

    def test_worker_returns_bounded_by_top_k(self):
        points = self.adversarial_points()
        backend = ShardedBackend(points, num_shards=2, num_workers=0)
        shifts = np.zeros((1, 1))
        for top_k in (1, 2, 4):
            for shard in range(2):
                results = backend._shards.view_heaviest_cells(
                    shard, None, None, None, 1.0, shifts, top_k
                )
                labels, counts, cap = results[0]
                assert labels.shape[0] <= top_k
                assert counts.shape[0] <= top_k
                # The cap bounds every truncated cell: nothing this shard
                # dropped can exceed its k-th largest kept count.
                assert cap == 0 or cap <= counts.min()

    def test_recount_certifies_global_argmax_outside_every_top_k(self):
        points = self.adversarial_points()
        reference = DenseBackend(points).view().heaviest_cell_counts(
            1.0, np.zeros((1, 1))
        )
        assert reference[0] == 10      # the split cell, heaviest only merged
        backend = ShardedBackend(points, num_shards=2, num_workers=0)
        calls = []
        shards = backend._shards

        def spy(method):
            original = getattr(shards, method)

            def counted(shard, *args):
                if shard == 0:          # one entry per merge round
                    calls.append(method)
                return original(shard, *args)
            return counted

        # Round 1 arrives inside the plan task, escalations as fan-outs;
        # both reach the shard set's methods, so spy there.
        for method in ("view_heaviest_cells", "view_count_labels"):
            setattr(shards, method, spy(method))
        backend.HEAVIEST_CELL_TOP_K = 2
        got = backend.view().heaviest_cell_counts(1.0, np.zeros((1, 1)))
        assert np.array_equal(got, reference)
        # Round 1 (top-2 lists + recount) cannot certify — the filler-cell
        # best (6) is below the cap bound (12) — so the merge must have
        # escalated into at least a second heaviest-cells round.
        assert calls.count("view_count_labels") >= 1
        assert calls.count("view_heaviest_cells") >= 2

    @pytest.mark.parametrize("top_k", [None, 1, 2, 3, 64])
    def test_bounded_merge_bitwise_equal_on_random_data(self, top_k):
        rng = np.random.default_rng(11)
        points = rng.uniform(0, 30, size=(400, 2))
        shifts = rng.uniform(0, 1.0, size=(5, 2))
        reference = DenseBackend(points).view().heaviest_cell_counts(1.0,
                                                                     shifts)
        for shards in (1, 2, 5):
            backend = ShardedBackend(points, num_shards=shards, num_workers=0)
            backend.HEAVIEST_CELL_TOP_K = top_k
            got = backend.view().heaviest_cell_counts(1.0, shifts)
            assert np.array_equal(got, reference), (shards, top_k)
