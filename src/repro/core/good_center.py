"""Algorithm GoodCenter (paper Algorithm 2, Lemma 3.7).

Given the radius ``r`` produced by GoodRadius, privately locate a centre
``y_hat`` such that a ball of radius ``O(r sqrt(log n))`` around it contains
at least ``t - O((1/epsilon) log(n/beta))`` input points.

Structure (step numbers refer to Algorithm 2):

1.  Project the points into ``R^k``, ``k = O(log(n/beta))``, with a
    Johnson–Lindenstrauss map.  When ``k`` would reach the ambient dimension
    ``d`` the projection is the identity — the JL step exists only to make
    ``k`` small, so there is nothing to gain from a square random projection.
2.  Instantiate AboveThreshold with budget ``epsilon/4``.
3-6. Repeatedly draw a randomly shifted partition of ``R^k`` into boxes of
    side ``O(r)`` and ask AboveThreshold whether some box captures ``~ t``
    projected points; stop at the first positive answer.
7.  Use the stability-based histogram (``epsilon/4, delta/4``) to pick a heavy
    box ``B``; let ``D`` be the input points mapped into ``B``.
8-9. Rotate ``R^d`` by a random orthonormal basis; on each rotated axis pick a
    heavy interval of length ``p`` (stability-based histogram, per-axis budget
    chosen so the ``d`` choices compose to ``epsilon/4`` under advanced
    composition) and extend it by ``p`` on each side.
10. Intersect ``D`` with the bounding sphere ``C`` of the resulting box —
    this gives a *deterministic* diameter bound for the final step.
11. Release the noisy average of ``D ∩ C`` with NoisyAVG (``epsilon/4,
    delta/4``).

Under the identity projection the chosen box ``B`` already lives in ``R^d``
and is itself a deterministic diameter bound of order ``r sqrt(k)``, which is
exactly what steps 8–10 exist to provide; in that case those steps are skipped
and ``C`` is taken to be the circumscribed ball of ``B`` (this only ever
*reduces* the privacy spend — the per-axis budget goes unused — and matches
the paper's own explanation of why the rotation is needed, namely to avoid a
``sqrt(d)`` blow-up that cannot occur when ``k = d``).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.accounting.composition import per_step_epsilon_for_advanced
from repro.accounting.ledger import PrivacyLedger
from repro.accounting.params import PrivacyParams
from repro.core.config import GoodCenterConfig
from repro.core.types import GoodCenterResult
from repro.geometry.balls import ball_membership
from repro.geometry.boxes import (
    AxisIntervalPartition,
    ShiftedBoxPartition,
    interval_labels,
)
from repro.geometry.jl import JohnsonLindenstrauss
from repro.geometry.rotation import project_onto_basis, random_orthonormal_basis
from repro.mechanisms.above_threshold import AboveThreshold
from repro.mechanisms.histogram import stable_histogram_choice_from_counts
from repro.mechanisms.noisy_average import noisy_average, noisy_average_from_stats
from repro.neighbors import (
    BackendLike,
    QueryPlan,
    first_occurrence_cells,
    resolve_backend,
)
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_points, check_positive, check_probability


def _failure(attempts: int, k: int) -> GoodCenterResult:
    return GoodCenterResult(center=None, radius_bound=float("inf"),
                            attempts=attempts, projected_dimension=k)


def good_center(points, radius: float, target: int, params: PrivacyParams,
                beta: float = 0.1, config: Optional[GoodCenterConfig] = None,
                rng: RngLike = None,
                ledger: Optional[PrivacyLedger] = None,
                backend: BackendLike = None) -> GoodCenterResult:
    """Privately locate the centre of a ball of radius ``~ radius`` holding
    ``~ target`` points.

    Parameters
    ----------
    points:
        ``(n, d)`` input database.
    radius:
        The cluster radius ``r`` (typically the GoodRadius output); must be
        positive — a zero radius means a cluster of identical points, which
        the combined solver handles separately.
    target:
        Desired cluster size ``t``.
    params:
        Overall ``(epsilon, delta)`` budget; split into four ``epsilon/4``
        parts exactly as in the paper's privacy analysis (Lemma 4.11).
    beta:
        Failure probability.
    config:
        The GoodCenter constants (paper or practical).
    rng:
        Seed or generator.
    ledger:
        Optional privacy ledger.
    backend:
        Optional neighbor-backend selection.  When given, *every* data-heavy
        stage rides the resolved backend: the partition search and step-7
        box histogram through a
        :class:`~repro.neighbors.base.ProjectedView` (on both the identity
        and JL projection paths), and steps 8-11 through the view's masked
        aggregate queries — the selected set travels as a
        :class:`~repro.neighbors.base.BoxSelection` label predicate, the
        rotated frame is just another ``backend.view(basis)``, and NoisyAVG
        consumes the merged ``(count, exact sum)`` statistics.  Each
        dependency frontier is bundled into one
        :class:`~repro.neighbors.QueryPlan` — the search batch, the box
        histogram, the step-9 axis histograms, the steps-10-11 statistics —
        so each stage costs exactly one worker round trip per shard, with
        the selection's per-shard membership derived once per call (workers
        memoise it under the selection's token).  The sharded backend
        evaluates all of it shard-side over its shared-memory block, so the
        parent's peak allocation in steps 8-11 is ``O(shard + d)`` — it
        never holds the projected image, the membership mask, or the
        rotated selected coordinates.  Pure performance — the projection is
        row-decomposable, the grid hashes and sphere mask are shared
        definitions, histogram cells arrive in first-occurrence order, and
        the aggregate sums are exact fixed-point (partition-independent), so
        the query sequence and every noise draw, and hence the release
        distribution, are unchanged.

    Returns
    -------
    GoodCenterResult
        ``center`` is ``None`` when the algorithm could not locate a heavy
        box/interval or NoisyAVG abstained; callers may retry with a fresh
        budget or report failure.
    """
    points = check_points(points)
    radius = check_positive(radius, "radius")
    target = check_integer(target, "target", minimum=1)
    beta = check_probability(beta, "beta")
    if params.delta <= 0:
        raise ValueError("good_center requires delta > 0")
    if config is None:
        config = GoodCenterConfig.practical()

    n, dimension = points.shape
    at_fraction, box_fraction, axes_fraction, avg_fraction = config.budget_split
    at_epsilon = params.epsilon * at_fraction
    box_epsilon = params.epsilon * box_fraction
    axes_epsilon = params.epsilon * axes_fraction
    avg_epsilon = params.epsilon * avg_fraction
    quarter_delta = params.delta / 4.0
    # The partition *shift* draws get their own stream (shift_rng), separate
    # from AboveThreshold's noise stream (partition_rng): the backend-batched
    # search below draws a few shifts ahead of their AboveThreshold queries,
    # and with a shared stream that lookahead would reorder the noise draws —
    # i.e. the backend choice would change the release.  With split streams
    # the query sequence, and hence the output distribution, is identical
    # whether or not the batched path runs.
    (jl_rng, partition_rng, box_rng, basis_rng, axis_rng, avg_rng,
     shift_rng) = spawn_generators(rng, 7)

    # ------------------------------------------------------------------ #
    # Step 1: Johnson-Lindenstrauss projection (identity when k reaches d).
    # ------------------------------------------------------------------ #
    k = config.projection_dimension(n, beta, ambient_dimension=dimension)
    identity_projection = k >= dimension
    projection: Optional[JohnsonLindenstrauss] = None
    if identity_projection:
        k = dimension
    else:
        projection = JohnsonLindenstrauss(input_dimension=dimension,
                                          output_dimension=k, rng=jl_rng)

    # With a backend, the projected points live behind a ProjectedView —
    # applied shard-side for the sharded strategy, so the parent never
    # materialises the (n, k) image.  Without one, the parent projects once
    # (through the same row-decomposable definition, so both paths hash
    # bit-identical coordinates).
    resolved = resolve_backend(points, backend) if backend is not None else None
    view = None
    projected = None
    if resolved is not None:
        view = resolved.view(None if projection is None else projection.matrix)
    elif projection is None:
        projected = points
    else:
        projected = projection.project(points)

    # ------------------------------------------------------------------ #
    # Steps 2-6: find a heavy randomly-shifted box partition.
    # ------------------------------------------------------------------ #
    threshold = target - (config.threshold_slack_constant / params.epsilon) * math.log(
        2.0 * n / beta
    )
    max_attempts = config.max_attempts(n, beta)
    above = AboveThreshold(threshold, PrivacyParams(at_epsilon, 0.0),
                           max_queries=max_attempts, rng=partition_rng)
    if ledger is not None:
        ledger.record("above_threshold", PrivacyParams(at_epsilon, 0.0),
                      note="GoodCenter partition search")
    width = config.box_width(radius, k, identity_projection)

    # Backend-batched partition search (identity *and* JL paths): the view
    # answers batches of heaviest-cell queries, amortising the sharded
    # backend's per-shard fan-out.  In-parent search uses batch size 1 (there
    # is no fan-out to amortise, and attempts past the accepted one would be
    # wasted hashes) and keeps each attempt's label array so the winning
    # partition need not be rehashed in step 7.
    batch_size = 1 if view is None else max(1, int(view.batch_size))

    chosen_partition: Optional[ShiftedBoxPartition] = None
    chosen_labels: Optional[np.ndarray] = None
    attempts = 0
    while attempts < max_attempts and chosen_partition is None:
        batch = [
            ShiftedBoxPartition(dimension=k, width=width, rng=shift_rng)
            for _ in range(min(batch_size, max_attempts - attempts))
        ]
        if view is not None:
            # One plan per batch: the whole attempt batch is a single round
            # trip per shard on the sharded backend.
            plan = QueryPlan()
            slot = plan.heaviest_cell_counts(
                view, width, np.stack([p.shifts for p in batch])
            )
            counts = resolved.execute(plan)[slot]
            labels_batch = [None] * len(batch)
        else:
            labels_batch = [p.label_array(projected) for p in batch]
            counts = [
                int(np.unique(la, axis=0, return_counts=True)[1].max())
                for la in labels_batch
            ]
        for partition, partition_labels, count in zip(batch, labels_batch,
                                                      counts):
            attempts += 1
            answer = above.query(int(count))
            if answer.above:
                chosen_partition = partition
                chosen_labels = partition_labels
                break
    if chosen_partition is None:
        return _failure(attempts, k)

    # ------------------------------------------------------------------ #
    # Step 7: pick the heavy box with the choosing mechanism.  The occupied
    # cells reach the mechanism in first-occurrence (dataset-row) order on
    # every path, so the per-cell noise draws are bit-identical whether the
    # histogram was counted in-parent or merged across shards.
    # ------------------------------------------------------------------ #
    # With a backend, the selected set D is carried through steps 8-11 as a
    # *label predicate* (BoxSelection) — the parent never materialises a
    # membership mask, a row list, or the selected coordinates; it only
    # merges the backends' (d,)-shaped aggregate partials.
    if view is not None:
        plan = QueryPlan()
        slot = plan.cell_histogram(view, width, chosen_partition.shifts)
        cell_keys, cell_counts = resolved.execute(plan)[slot]
    else:
        # The in-parent search already hashed the winning partition.
        cell_keys, cell_counts = first_occurrence_cells(chosen_labels)
    cells = [(tuple(int(index) for index in key), int(count))
             for key, count in zip(cell_keys, cell_counts)]

    box_choice = stable_histogram_choice_from_counts(
        cells, PrivacyParams(box_epsilon, quarter_delta), rng=box_rng
    )
    if ledger is not None:
        ledger.record("stable_histogram", PrivacyParams(box_epsilon, quarter_delta),
                      note="GoodCenter box choice")
    if not box_choice.found:
        return _failure(attempts, k)
    chosen_index = np.asarray(box_choice.key, dtype=np.int64)
    selection = None
    selected = None
    if view is not None:
        selection = view.box_selection(width, chosen_partition.shifts,
                                       chosen_index)
        # The histogram already carries the exact occupancy of the chosen
        # box — no membership pass needed for the emptiness guard.
        selected_count = int(box_choice.true_count)
    else:
        in_box = np.all(chosen_labels == chosen_index[None, :], axis=1)
        selected = points[in_box]
        selected_count = int(selected.shape[0])
    if selected_count == 0:
        return _failure(attempts, k)
    chosen_box = chosen_partition.box_for_label(box_choice.key)
    selected_diameter = config.selected_set_diameter(radius, k, identity_projection)

    if identity_projection:
        # The box B is itself a subset of R^d with a known circumscribed ball;
        # steps 8-10 would only produce a looser deterministic bound, so the
        # bounding sphere is taken directly from B (see module docstring).
        sphere_center = chosen_box.center
        sphere_radius = chosen_box.diameter / 2.0
        frame_points = selected
        frame_view = view
        rotate_back = None
    else:
        # ---------------------------------------------------------------- #
        # Steps 8-9: random rotation, per-axis heavy intervals.  The rotated
        # frame is just another linear image of the dataset, so with a
        # backend it rides ``backend.view(basis)``: the per-axis interval
        # histograms arrive merged in first-occurrence order (bit-identical
        # noise draws) and the parent holds O(occupied intervals), never the
        # rotated selected coordinates.
        # ---------------------------------------------------------------- #
        basis = random_orthonormal_basis(dimension, rng=basis_rng)
        interval_length = config.rotated_interval_length(
            radius, k, dimension, n, beta, identity_projection
        )
        axis_epsilon = per_step_epsilon_for_advanced(
            axes_epsilon, dimension, delta_prime=params.delta / 8.0
        )
        axis_delta = params.delta / (8.0 * dimension)
        axis_params = PrivacyParams(axis_epsilon, axis_delta)
        axis_rngs = spawn_generators(axis_rng, dimension)

        if view is not None:
            # Steps 8-9 are one plan: every axis histogram of the rotated
            # frame (and the selection's membership derivation) rides a
            # single round trip per shard.
            frame_view = resolved.view(basis)
            plan = QueryPlan()
            slot = plan.masked_axis_histograms(frame_view, selection,
                                               interval_length)
            axis_histograms = resolved.execute(plan)[slot]
        else:
            frame_points = project_onto_basis(selected, basis)
            axis_label_matrix = interval_labels(frame_points, interval_length)
            axis_histograms = [
                first_occurrence_cells(axis_label_matrix[:, axis])
                for axis in range(dimension)
            ]

        lower_bounds = np.empty(dimension)
        upper_bounds = np.empty(dimension)
        for axis in range(dimension):
            partition = AxisIntervalPartition(width=interval_length)
            axis_keys, axis_counts = axis_histograms[axis]
            choice = stable_histogram_choice_from_counts(
                list(zip(axis_keys.tolist(), axis_counts.tolist())),
                axis_params, rng=axis_rngs[axis],
            )
            if not choice.found:
                return _failure(attempts, k)
            low, high = partition.extended_interval(int(choice.key))
            lower_bounds[axis] = low
            upper_bounds[axis] = high
        if ledger is not None:
            ledger.record("stable_histogram_axes",
                          PrivacyParams(axes_epsilon, quarter_delta),
                          note="GoodCenter per-axis interval choices "
                               "(advanced composition)")

        # -------------------------------------------------------------- #
        # Step 10: bounding sphere C in the rotated frame.
        # -------------------------------------------------------------- #
        sphere_center = (lower_bounds + upper_bounds) / 2.0
        sphere_radius = config.bounding_sphere_radius(interval_length, dimension)
        rotate_back = basis

    # ------------------------------------------------------------------ #
    # Steps 10-11: captured count + NoisyAVG of D' in the working frame,
    # then map back if needed.  The backend path hands NoisyAVG the
    # merged (count, exact sum) statistics; the in-parent path hands it the
    # raw frame points.  Both funnel into the same release core over the
    # same ball_membership mask and the same exact column sums, so the
    # releases (abstain branch included) are bit-for-bit identical.
    # ------------------------------------------------------------------ #
    avg_params = PrivacyParams(avg_epsilon, quarter_delta)
    if view is not None:
        # Steps 10-11 are one plan: NoisyAVG's (count, exact sum) statistics
        # arrive in a single round trip per shard.  The sphere's centre
        # depends on the step-9 noise, so this frontier cannot fuse with the
        # axis-histogram plan without changing the release.
        plan = QueryPlan()
        slot = plan.masked_clipped_sum(frame_view, selection,
                                       sphere_center, sphere_radius)
        stats = resolved.execute(plan)[slot]
        captured = int(stats.count)
        average = noisy_average_from_stats(
            stats.count, stats.vector_sum, diameter=2.0 * sphere_radius,
            params=avg_params, center=sphere_center, rng=avg_rng,
        )
    else:
        captured = int(np.count_nonzero(
            ball_membership(frame_points, sphere_center, sphere_radius)
        ))
        average = noisy_average(
            frame_points,
            diameter=2.0 * sphere_radius,
            params=avg_params,
            predicate=lambda pts: ball_membership(pts, sphere_center,
                                                  sphere_radius),
            center=sphere_center,
            rng=avg_rng,
        )
    if ledger is not None:
        ledger.record("noisy_average", PrivacyParams(avg_epsilon, quarter_delta),
                      note="GoodCenter final average")
    if not average.found:
        return _failure(attempts, k)
    if rotate_back is None:
        center = np.asarray(average.value, dtype=float)
    else:
        # Basis rows are the rotated axes, so rotated coordinates map back to
        # the standard frame through the matrix itself.
        center = np.asarray(average.value, dtype=float) @ rotate_back

    noise_bound = average.sigma * (math.sqrt(dimension) + math.sqrt(2.0 * math.log(2.0 / beta)))
    radius_bound = selected_diameter + noise_bound
    return GoodCenterResult(
        center=center,
        radius_bound=float(radius_bound),
        attempts=attempts,
        projected_dimension=k,
        captured_count=captured,
    )


__all__ = ["good_center"]
