"""Tests for the quasi-concave promise-problem solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accounting.params import PrivacyParams
from repro.quasiconcave.binary_search import binary_search_loss, noisy_binary_search
from repro.quasiconcave.quality import (
    ArrayQuality,
    CallableQuality,
    is_quasi_concave,
)
from repro.quasiconcave.rec_concave import (
    practical_promise,
    rec_concave,
    rec_concave_promise,
)


def _tent(size: int, peak: int, height: float) -> np.ndarray:
    """A quasi-concave 'tent' score peaking at the given index."""
    indices = np.arange(size)
    return np.maximum(0.0, height - np.abs(indices - peak))


class TestQualityInterface:
    def test_array_quality(self):
        quality = ArrayQuality([1.0, 5.0, 2.0])
        assert quality.size == 3
        assert quality.value(1) == 5.0
        assert quality.values([0, 2]).tolist() == [1.0, 2.0]

    def test_array_quality_rejects_empty(self):
        with pytest.raises(ValueError):
            ArrayQuality([])

    def test_callable_quality_memoises(self):
        calls = []

        def score(index):
            calls.append(index)
            return float(index)

        quality = CallableQuality(score, size=10)
        quality.value(3)
        quality.value(3)
        quality.values([3, 4])
        assert calls.count(3) == 1
        assert quality.evaluations == 2

    def test_callable_quality_batch_function(self):
        quality = CallableQuality(lambda i: float(i), size=100,
                                  batch_function=lambda idx: idx.astype(float) * 2)
        # Batch function takes precedence for unseen indices.
        assert quality.values([5]).tolist() == [10.0]

    def test_callable_quality_bounds(self):
        quality = CallableQuality(lambda i: 0.0, size=5)
        with pytest.raises(IndexError):
            quality.value(7)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("indices", [[-1], [10], [0, 10]])
    def test_callable_quality_values_bounds(self, indices, batched):
        quality = CallableQuality(
            lambda i: float(i), size=10,
            batch_function=(lambda idx: idx.astype(float)) if batched else None,
        )
        with pytest.raises(IndexError):
            quality.values(indices)
        assert quality.evaluations == 0

    def test_callable_quality_batches_unique_missing_indices(self):
        batches = []

        def batch(indices):
            batches.append(indices.tolist())
            return indices.astype(float) * 10

        quality = CallableQuality(lambda i: -1.0, size=8, batch_function=batch)
        assert quality.values([5, 2, 5]).tolist() == [50.0, 20.0, 50.0]
        assert quality.values([2, 7, 2, 0]).tolist() == [20.0, 70.0, 20.0, 0.0]
        assert batches == [[2, 5], [0, 7]]
        assert quality.evaluations == 4

    def test_is_quasi_concave(self):
        assert is_quasi_concave([1, 2, 3, 3, 2, 1])
        assert is_quasi_concave([0, 0, 0])
        assert is_quasi_concave([5])
        assert not is_quasi_concave([3, 1, 3])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=29))
    def test_sorted_then_reversed_is_quasi_concave(self, values, split):
        split = min(split, len(values))
        rising = sorted(values[:split])
        falling = sorted(values[split:], reverse=True)
        # Make the junction consistent so the sequence is single-peaked.
        if rising and falling and rising[-1] > falling[0]:
            falling = [rising[-1]] + falling
        assert is_quasi_concave(rising + falling)


class TestRecConcave:
    def test_finds_near_optimal_on_tent(self):
        scores = _tent(size=2000, peak=700, height=500.0)
        quality = ArrayQuality(scores)
        result = rec_concave(quality, promise=400.0, alpha=0.5,
                             params=PrivacyParams(2.0, 1e-6), rng=0)
        assert scores[result.index] >= 200.0

    def test_single_candidate(self):
        result = rec_concave(ArrayQuality([7.0]), promise=5.0, alpha=0.5,
                             params=PrivacyParams(1.0, 1e-6), rng=0)
        assert result.index == 0
        assert result.quality == 7.0

    def test_plateau_selects_inside(self):
        scores = np.zeros(500)
        scores[100:200] = 300.0
        result = rec_concave(ArrayQuality(scores), promise=250.0, alpha=0.5,
                             params=PrivacyParams(4.0, 1e-6), rng=1)
        assert 90 <= result.index <= 210

    def test_rejects_bad_arguments(self):
        quality = ArrayQuality([1.0, 2.0])
        with pytest.raises(ValueError):
            rec_concave(quality, promise=0.0, alpha=0.5, params=PrivacyParams(1.0))
        with pytest.raises(ValueError):
            rec_concave(quality, promise=1.0, alpha=1.5, params=PrivacyParams(1.0))

    def test_reproducible_with_seed(self):
        scores = _tent(size=300, peak=40, height=100.0)
        a = rec_concave(ArrayQuality(scores), 50.0, 0.5, PrivacyParams(1.0), rng=9)
        b = rec_concave(ArrayQuality(scores), 50.0, 0.5, PrivacyParams(1.0), rng=9)
        assert a.index == b.index

    def test_success_rate_over_seeds(self):
        scores = _tent(size=1000, peak=321, height=400.0)
        quality = ArrayQuality(scores)
        successes = sum(
            scores[rec_concave(quality, 300.0, 0.5, PrivacyParams(2.0, 1e-6),
                               rng=seed).index] >= 150.0
            for seed in range(20)
        )
        assert successes >= 17

    def test_promise_formulas(self):
        params = PrivacyParams(1.0, 1e-6)
        paper = rec_concave_promise(10 ** 6, alpha=0.5, beta=0.1, params=params)
        practical = practical_promise(10 ** 6, alpha=0.5, beta=0.1, params=params)
        assert paper > practical > 0

    def test_promise_requires_positive_delta(self):
        with pytest.raises(ValueError):
            rec_concave_promise(100, 0.5, 0.1, PrivacyParams(1.0, 0.0))


class TestNoisyBinarySearch:
    def test_finds_threshold_crossing(self):
        scores = np.concatenate([np.zeros(400), np.full(600, 100.0)])
        result = noisy_binary_search(ArrayQuality(scores), threshold=50.0,
                                     params=PrivacyParams(4.0), rng=0)
        assert 380 <= result.index <= 420

    def test_gradual_ramp(self):
        scores = np.arange(1000, dtype=float)
        result = noisy_binary_search(ArrayQuality(scores), threshold=500.0,
                                     params=PrivacyParams(4.0), rng=1)
        assert abs(result.index - 500) <= 60

    def test_single_candidate(self):
        result = noisy_binary_search(ArrayQuality([3.0]), threshold=1.0,
                                     params=PrivacyParams(1.0), rng=0)
        assert result.index == 0
        assert result.comparisons == 0

    def test_comparisons_logarithmic(self):
        scores = np.arange(4096, dtype=float)
        result = noisy_binary_search(ArrayQuality(scores), threshold=1000.0,
                                     params=PrivacyParams(4.0), rng=0)
        assert result.comparisons <= 12

    def test_loss_grows_with_domain(self):
        params = PrivacyParams(1.0)
        assert (binary_search_loss(2 ** 20, params, 1.0, 0.1)
                > binary_search_loss(2 ** 5, params, 1.0, 0.1))

    def test_invalid_sensitivity(self):
        with pytest.raises(ValueError):
            noisy_binary_search(ArrayQuality([1.0, 2.0]), 1.0,
                                PrivacyParams(1.0), sensitivity=0.0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=10, max_value=2000),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_always_returns_valid_index(self, size, seed):
        scores = np.sort(np.random.default_rng(seed).uniform(0, 100, size=size))
        result = noisy_binary_search(ArrayQuality(scores), threshold=50.0,
                                     params=PrivacyParams(1.0), rng=seed)
        assert 0 <= result.index < size
