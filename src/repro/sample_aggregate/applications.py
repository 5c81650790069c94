"""Ready-made sample-and-aggregate applications.

These wrap :func:`~repro.sample_aggregate.framework.sample_and_aggregate`
around standard non-private analyses — mirroring the applications the paper
cites for the framework (k-means / Gaussian-mixture estimation in [16],
statistical estimators in Smith 2011, GUPT-style averaging in [15]).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.accounting.params import PrivacyParams
from repro.sample_aggregate.framework import StablePointResult, sample_and_aggregate
from repro.utils.exactsum import exact_column_sums
from repro.utils.rng import RngLike


class BlockMean:
    """Plan-capable block analysis: the exact column mean.

    ``__call__`` computes one block's mean through
    :func:`~repro.utils.exactsum.exact_column_sums` (the correctly-rounded
    fixed-point column sum), and ``compile``/``resolve`` compute the *same*
    sums for every block of a release through one backend ``block_sums``
    plan query.  The segmented exact sum is partition-independent by
    construction, so the two paths — and every backend at every shard
    count — produce bitwise-identical block means, which is what lets
    :func:`sample_and_aggregate` evaluate a whole release as one plan
    without perturbing it.
    """

    def __call__(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block.reshape(-1, 1)
        return exact_column_sums(block) / float(block.shape[0])

    def compile(self, plan, view, rows, block_size: int) -> int:
        return plan.block_sums(view, rows, block_size)

    def resolve(self, results, token: int, block_size: int) -> np.ndarray:
        return np.asarray(results[token], dtype=float) / float(block_size)


def private_mean_estimator(data, block_size: int, params: PrivacyParams,
                           beta: float = 0.1, rng: RngLike = None,
                           **kwargs) -> StablePointResult:
    """Private mean estimation: each block's analysis is its sample mean.

    The sample mean of an i.i.d. block concentrates around the population
    mean, so it is a highly stable analysis — the canonical demonstration of
    the framework.  The analysis is :class:`BlockMean`, so with a
    ``backend=`` every block evaluates inside one query plan.  (The mean
    is the exact correctly-rounded one; this deliberately replaced
    ``block.mean(axis=0)``, whose pairwise summation is partition-dependent
    and could not match across backends.)
    """
    return sample_and_aggregate(data, BlockMean(), block_size, params,
                                beta=beta, rng=rng, **kwargs)


def private_median_estimator(data, block_size: int, params: PrivacyParams,
                             beta: float = 0.1, rng: RngLike = None,
                             **kwargs) -> StablePointResult:
    """Private coordinate-wise median estimation (Smith 2011 used d=1)."""

    def analysis(block: np.ndarray) -> np.ndarray:
        return np.median(np.asarray(block, dtype=float), axis=0)

    return sample_and_aggregate(data, analysis, block_size, params, beta=beta,
                                rng=rng, **kwargs)


def component_assignment(block: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-centre assignment of each block row, via the shared blocked
    distance kernel.

    Replaces the former dense ``(block, k, d)`` broadcast
    (``np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2)``)
    with one :func:`repro.kernels.squared_distance_slab` call — ``argmin``
    over squared distances selects the same centre as ``argmin`` over norms
    (the square root is monotone and ties keep first-index semantics), at a
    fraction of the memory traffic.
    """
    distances = kernels.squared_distance_slab(
        np.ascontiguousarray(block), np.ascontiguousarray(centers)
    )
    return np.argmin(distances, axis=1)


def private_gmm_center_estimator(data, block_size: int, params: PrivacyParams,
                                 num_components: int = 2, iterations: int = 10,
                                 beta: float = 0.1, rng: RngLike = None,
                                 **kwargs) -> StablePointResult:
    """Private estimation of the heaviest Gaussian-mixture component's mean.

    Each block runs a small Lloyd-style hard-EM with ``num_components``
    centres and reports the centre of the largest component.  When one
    component dominates the mixture, that centre is stable across blocks, so
    the 1-cluster aggregator recovers it; lighter components make the analysis
    output multi-modal, which is exactly the regime where a noisy-average
    aggregator fails but a minority-cluster aggregator still works.
    """
    if num_components < 1:
        raise ValueError("num_components must be at least 1")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")

    def analysis(block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block.reshape(-1, 1)
        # Deterministic k-means++-free initialisation: spread quantile seeds
        # along the first principal direction so repeated blocks of the same
        # distribution initialise consistently (stability is the point here).
        centred = block - block.mean(axis=0, keepdims=True)
        if block.shape[1] > 1:
            _, _, vt = np.linalg.svd(centred, full_matrices=False)
            scores = centred @ vt[0]
        else:
            scores = centred[:, 0]
        quantiles = np.quantile(scores, np.linspace(0.1, 0.9, num_components))
        order = np.argsort(scores)
        centers = np.stack([
            block[order[np.searchsorted(scores[order], q)]] for q in quantiles
        ])
        for _ in range(iterations):
            assignment = component_assignment(block, centers)
            for component in range(num_components):
                members = block[assignment == component]
                if members.shape[0] > 0:
                    centers[component] = members.mean(axis=0)
        counts = np.bincount(assignment, minlength=num_components)
        return centers[int(np.argmax(counts))]

    return sample_and_aggregate(data, analysis, block_size, params, beta=beta,
                                rng=rng, **kwargs)


__all__ = [
    "BlockMean",
    "component_assignment",
    "private_mean_estimator",
    "private_median_estimator",
    "private_gmm_center_estimator",
]
