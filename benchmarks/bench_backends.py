"""Smoke benchmark comparing neighbor backends on the GoodRadius hot path.

For each ``n`` the benchmark times the workload that dominates ``good_radius``
— evaluating the capped-average score ``L(r, S)`` over the full candidate
radius grid — under every backend (dense / chunked / tree / sharded), plus a
faithful replica of the *seed* implementation (Gram-matrix pairwise distances,
full row sort, per-row Python ``searchsorted`` loop) as the reference the
speedups are measured against.

Run directly::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py --sizes 1000 5000 20000 \
        --seed-max 5000          # skip the O(n^2)-memory seed path at 20k
    PYTHONPATH=src python benchmarks/bench_backends.py --end-to-end
    PYTHONPATH=src python benchmarks/bench_backends.py --sizes 50000 \
        --seed-max 0 --workers 8 # sharded backend on an 8-way pool
    PYTHONPATH=src python benchmarks/bench_backends.py --large-target \
        --sizes 20000            # t = 0.9 n memory/latency profile
    PYTHONPATH=src python benchmarks/bench_backends.py --json
                                 # persisted trajectory -> BENCH_backends.json

``--end-to-end`` additionally runs the private ``good_radius`` release itself
per backend, demonstrating the n = 20k, d = 2 case that was out of reach for
the seed's dense matrix.  ``--large-target`` switches to the outlier-screening
profile (``t = 0.9 n``): it reports wall-clock *and* tracemalloc peak memory
for the persisted ``O(n*t)`` statistic versus the radii-chunked streaming
walk, which stays ``O(n * block)`` at every target.  ``--json`` writes the
*persisted benchmark trajectory* — distance-slab kernel timings at each size
plus one sharded ``good_center`` release recording wall time, collective
round trips, the active kernel mode and parent peak memory — to
``BENCH_backends.json`` (CI uploads it as an artifact, so the
numbers accumulate a history across commits).  ``--sample-aggregate``
appends a Section-6 workload to that trajectory: the same private
sample-and-aggregate mean release timed on the serial parent-side path and
on the pipelined path (the whole release one query plan carrying one
segmented ``block_sums`` query over a sharded backend), parity-asserted,
with both wall times and the speedup.
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc

import numpy as np

from repro import kernels
from repro.accounting.params import PrivacyParams
from repro.core.good_radius import good_radius
from repro.datasets.synthetic import planted_cluster
from repro.experiments.harness import format_table
from repro.geometry.balls import pairwise_distances
from repro.geometry.grid import GridDomain
from repro.neighbors import BACKENDS, auto_backend

DIMENSION = 2

#: Default sizes of the ``--json`` trajectory (the distance-slab
#: microbenchmark sizes the kernel speedups are tracked at).
JSON_SIZES = (20000, 100000)

#: The end-to-end release config is capped at this n so the JSON run stays
#: minutes, not hours, on small CI machines (the slab microbenchmark is the
#: size-sensitive kernel probe; the release config tracks round trips,
#: which do not grow with n).
JSON_RELEASE_CAP = 20000


def make_backend(name: str, points: np.ndarray, workers):
    """Build one registry backend, honouring ``--workers`` for "sharded"."""
    if name == "sharded":
        return BACKENDS[name](points, num_workers=workers)
    return BACKENDS[name](points)


def seed_dense_profile(points: np.ndarray, radii: np.ndarray,
                       target: int) -> np.ndarray:
    """The seed RadiusScore path, verbatim in spirit: full sorted Gram-matrix
    distances + per-row Python searchsorted loop, chunked over radii."""
    n = points.shape[0]
    sorted_distances = np.sort(pairwise_distances(points), axis=1)
    result = np.empty(radii.shape[0])
    for start in range(0, radii.shape[0], 1024):
        chunk = radii[start:start + 1024]
        counts = np.empty((n, chunk.shape[0]))
        for row in range(n):
            counts[row] = np.searchsorted(sorted_distances[row], chunk,
                                          side="right")
        np.minimum(counts, target, out=counts)
        counts[:, chunk < 0] = 0.0
        top = counts if target == n else np.partition(
            counts, n - target, axis=0)[n - target:, :]
        result[start:start + 1024] = top.mean(axis=0)
    return result


def bench_one(n: int, seed_max: int, end_to_end: bool, rng_seed: int,
              workers=None, backend_names=None) -> list:
    target = max(100, n // 50)
    data = planted_cluster(n=n, d=DIMENSION, cluster_size=2 * target,
                           cluster_radius=0.05, rng=rng_seed)
    points = data.points
    domain = GridDomain(dimension=DIMENSION, side=1025,
                        low=float(np.floor(points.min())),
                        high=float(np.ceil(points.max())))
    radii = domain.candidate_radii()
    params = PrivacyParams(2.0, 1e-6)
    rows = []

    baseline_seconds = None
    if n <= seed_max:
        start = time.perf_counter()
        reference = seed_dense_profile(points, radii, target)
        baseline_seconds = time.perf_counter() - start
        rows.append({"n": n, "t": target, "backend": "seed_dense",
                     "profile_s": baseline_seconds, "speedup": 1.0,
                     "auto_pick": ""})
    else:
        reference = None
        rows.append({"n": n, "t": target, "backend": "seed_dense",
                     "profile_s": float("nan"), "speedup": float("nan"),
                     "auto_pick": "(skipped: --seed-max)"})

    auto_pick = auto_backend(n, DIMENSION)
    for name in (backend_names or BACKENDS):
        start = time.perf_counter()
        backend = make_backend(name, points, workers)
        profile = backend.capped_average_scores(radii, target)
        seconds = time.perf_counter() - start
        if reference is not None:
            assert np.allclose(profile, reference, atol=1e-9), (
                f"{name} disagrees with the seed path at n={n}"
            )
        row = {"n": n, "t": target, "backend": name, "profile_s": seconds,
               "speedup": (baseline_seconds / seconds
                           if baseline_seconds else float("nan")),
               "auto_pick": "*" if name == auto_pick else ""}
        if end_to_end:
            start = time.perf_counter()
            result = good_radius(points, target, params, rng=0, backend=backend)
            row["good_radius_s"] = time.perf_counter() - start
            row["released_radius"] = result.radius
        if name == "sharded":
            backend.close()
        rows.append(row)
    return rows


def bench_large_target(n: int, rng_seed: int, workers=None) -> list:
    """The outlier-screening profile: ``t = 0.9 n``, persisted vs streaming.

    Reports wall-clock seconds and tracemalloc peak MB; the streaming walk
    must stay far below the ``8 n t`` bytes the persisted statistic costs.
    Ends with the sorted-slab reuse regression check (see
    :func:`assert_streaming_slab_reuse`).
    """
    target = int(0.9 * n)
    data = planted_cluster(n=n, d=DIMENSION, cluster_size=target,
                           cluster_radius=0.3, rng=rng_seed)
    points = data.points
    radii = np.linspace(0.0, 1.2, 24)
    rows = []
    for name in ("chunked", "tree", "sharded"):
        for streaming in (False, True):
            backend = make_backend(name, points, workers)
            tracemalloc.start()
            start = time.perf_counter()
            scores = backend.capped_average_scores(radii, target,
                                                   streaming=streaming)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            if name == "sharded":
                backend.close()
            rows.append({
                "n": n, "t": target, "backend": name,
                "mode": "streaming" if streaming else "persisted",
                "profile_s": seconds, "peak_mb": peak / 1e6,
                "persisted_mb": 8 * n * min(target, n) / 1e6,
                "score_at_max": float(scores[-1]),
            })
    assert_streaming_slab_reuse(points, target)
    return rows


def assert_streaming_slab_reuse(points: np.ndarray, target: int,
                                grid_size: int = 1024) -> None:
    """Regression guard: the streaming walk sorts each distance slab once.

    The streaming ``L(r, S)`` evaluation processes the radius grid in sweeps
    sized to one memory budget; within a sweep every ``(block, n)`` distance
    slab is computed and sorted exactly once, then binary-searched for every
    radius.  Before the sweep refactor a grid this large (``grid_size``
    radii at ``cap = t``) was split into multiple chunks, each re-running —
    and re-sorting — the full blocked pass.  Counting the distance-block
    calls of one streaming evaluation pins the reuse: exactly one pass over
    the query rows (``ceil(n / block)`` block computations), regardless of
    the grid size.
    """
    import repro.neighbors._distance as _distance
    from repro.neighbors._distance import row_block_size

    n = points.shape[0]
    radii = np.linspace(0.0, 1.2, grid_size)
    backend = BACKENDS["chunked"](points)
    calls = []
    original = _distance.squared_distance_block

    def counting(queries, data):
        calls.append(queries.shape[0])
        return original(queries, data)

    _distance.squared_distance_block = counting
    try:
        streamed = backend.capped_average_scores(radii, target,
                                                 streaming=True)
    finally:
        _distance.squared_distance_block = original
    block = row_block_size(n, points.shape[1])
    expected_passes = -(-n // block)               # ceil: one full pass
    assert len(calls) == expected_passes, (
        f"streaming walk ran {len(calls)} distance-block computations for "
        f"{grid_size} radii, expected one full pass ({expected_passes}); "
        "the sorted-slab reuse regressed"
    )
    persisted = backend.capped_average_scores(radii, target, streaming=False)
    assert np.array_equal(streamed, persisted), (
        "slab-reuse streaming scores diverged from the persisted statistic"
    )
    print(f"  slab reuse ok: {grid_size} radii in {len(calls)} block passes "
          f"(one sort per block), streaming == persisted bitwise")


def bench_good_center_jl(n: int, rng_seed: int, workers=None,
                         attempts: int = 64) -> list:
    """The JL-path partition search: inline parent hashing vs view-batched.

    GoodCenter's non-identity path repeatedly hashes the JL-projected points
    into randomly shifted box partitions (Algorithm 2, steps 3-6).  The
    *inline* flavour is the no-backend reference: the parent materialises the
    ``(n, k)`` projected image once and hashes it once per attempt.  The
    *view-batched* flavour runs the same attempts through a sharded
    backend's :class:`~repro.neighbors.base.ProjectedView` in batches: the
    projection matrix ships to the workers once, shards hash their own slice
    in parallel, and the parent only merges per-label counts — it never
    holds the image, which is what the parent-side peak-memory column
    records (tracemalloc sees the parent process only; that asymmetry is the
    point).  Both flavours are timed steady-state (image / pool warm-up
    excluded) and the per-attempt counts are asserted identical — the bench
    doubles as a parity check.
    """
    from repro.core.config import GoodCenterConfig
    from repro.geometry.boxes import box_labels
    from repro.geometry.jl import JohnsonLindenstrauss, project_rows

    dimension = 32
    beta = 0.1
    config = GoodCenterConfig(jl_constant=1.0)
    k = config.projection_dimension(n, beta, ambient_dimension=dimension)
    assert k < dimension, "jl_constant must force the non-identity path"
    data = planted_cluster(n=n, d=dimension, cluster_size=max(200, n // 20),
                           cluster_radius=0.05, rng=rng_seed)
    points = data.points
    radius = 0.05
    width = config.box_width(radius, k, identity_projection=False)
    matrix = JohnsonLindenstrauss(input_dimension=dimension,
                                  output_dimension=k, rng=0).matrix
    shifts = np.random.default_rng(1).uniform(0.0, width, size=(attempts, k))
    rows = []

    # Inline (no-backend) reference: project once, hash per attempt.
    tracemalloc.start()
    projected = project_rows(points, matrix)          # warm: kept across attempts
    start = time.perf_counter()
    inline_counts = np.array([
        np.unique(box_labels(projected, shift, width), axis=0,
                  return_counts=True)[1].max()
        for shift in shifts
    ])
    inline_seconds = time.perf_counter() - start
    _, inline_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del projected
    rows.append({
        "n": n, "k": k, "mode": "inline", "attempts": attempts,
        "attempts_per_s": attempts / inline_seconds,
        "parent_peak_mb": inline_peak / 1e6,
        "speedup": 1.0,
    })

    backend = make_backend("sharded", points, workers)
    try:
        view = backend.view(matrix)
        batch = view.batch_size
        view.heaviest_cell_counts(width, shifts[:1])  # warm: pool + images
        tracemalloc.start()
        start = time.perf_counter()
        batched_counts = np.concatenate([
            view.heaviest_cell_counts(width, shifts[i:i + batch])
            for i in range(0, attempts, batch)
        ])
        batched_seconds = time.perf_counter() - start
        _, batched_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    finally:
        backend.close()
    assert np.array_equal(batched_counts, inline_counts), (
        f"view-batched search disagrees with inline hashing at n={n}"
    )
    rows.append({
        "n": n, "k": k, "mode": "view-batched", "attempts": attempts,
        "attempts_per_s": attempts / batched_seconds,
        "parent_peak_mb": batched_peak / 1e6,
        "speedup": inline_seconds / batched_seconds,
    })
    return rows


def bench_good_center_rotated(n: int, rng_seed: int, workers=None) -> list:
    """The full rotated-stage release (steps 8-11): in-parent vs shard-side.

    Times the complete ``good_center`` call on the JL + rotated-axis path.
    The *in-parent* flavour is the no-backend reference: it materialises
    the selected set, rotates it, and hands the coordinates to NoisyAVG.
    The *shard-side* flavour runs the same call through a sharded backend:
    the selected set travels as a label predicate, the rotated frame is a
    shard-side view, and the parent only merges per-axis histograms and
    ``(count, exact sum)`` partials — the parent-process tracemalloc peak
    column is the point (in pool mode the parent never holds the selected
    or rotated coordinates).  Each stage is one
    :class:`~repro.neighbors.QueryPlan`; the ``round_trips`` column counts
    the backend's collective fan-outs.  The releases are asserted bitwise
    identical, so the bench doubles as an end-to-end parity check.
    """
    from repro.core.config import GoodCenterConfig
    from repro.core.good_center import good_center

    dimension = 16
    target = n // 2
    config = GoodCenterConfig(jl_constant=0.3)
    data = planted_cluster(n=n, d=dimension, cluster_size=int(0.6 * n),
                           cluster_radius=0.05,
                           center=[0.5] * dimension, rng=rng_seed)
    points = data.points
    center_params = PrivacyParams(8.0, 1e-5)
    rows = []

    tracemalloc.start()
    start = time.perf_counter()
    reference = good_center(points, radius=0.05, target=target,
                            params=center_params, config=config, rng=5)
    inline_seconds = time.perf_counter() - start
    _, inline_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert reference.found and reference.projected_dimension < dimension, (
        "the bench case must take the JL + rotated-axis path and succeed"
    )
    rows.append({
        "n": n, "d": dimension, "k": reference.projected_dimension,
        "mode": "in-parent", "release_s": inline_seconds,
        "parent_peak_mb": inline_peak / 1e6, "round_trips": float("nan"),
        "speedup": 1.0,
    })

    backend = make_backend("sharded", points, workers)
    try:
        backend.radius_counts(0.01)        # warm: pool + shared memory
        warm_fanouts = backend.pool_stats()["fanouts"]
        tracemalloc.start()
        start = time.perf_counter()
        result = good_center(points, radius=0.05, target=target,
                             params=center_params, config=config, rng=5,
                             backend=backend)
        shard_seconds = time.perf_counter() - start
        _, shard_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        round_trips = backend.pool_stats()["fanouts"] - warm_fanouts
    finally:
        backend.close()
    assert result.found and np.array_equal(result.center,
                                           reference.center), (
        f"shard-side rotated stage disagrees with the in-parent release at "
        f"n={n}"
    )
    rows.append({
        "n": n, "d": dimension, "k": result.projected_dimension,
        "mode": "shard-side", "release_s": shard_seconds,
        "parent_peak_mb": shard_peak / 1e6,
        "round_trips": round_trips,
        "speedup": inline_seconds / shard_seconds,
    })
    return rows


def parent_peak_rss_mib() -> float:
    """This process's lifetime peak resident set, in MiB (NaN off-POSIX)."""
    try:
        import resource
    except ImportError:                      # pragma: no cover - non-POSIX
        return float("nan")
    import sys

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform == "darwin":             # pragma: no cover
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


def bench_json_distance_slab(n: int, rng_seed: int, repeats: int = 3) -> dict:
    """Time one full blocked distance slab — the kernel every backend's
    ``O(n^2)`` neighbor work decomposes into — under the active kernel set.

    The query block is sized by :func:`~repro.neighbors._distance.
    row_block_size`, i.e. exactly the slab shape the chunked/sharded walks
    issue, and the best of ``repeats`` runs is reported (first a small
    warm-up call absorbs any JIT compilation).
    """
    from repro.neighbors._distance import row_block_size

    rng = np.random.default_rng(rng_seed)
    data = rng.uniform(0.0, 1.0, size=(n, DIMENSION))
    block = row_block_size(n, DIMENSION)
    queries = data[:block]
    kernels.squared_distance_slab(queries[:64], data[:256])   # warm: JIT
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        slab = kernels.squared_distance_slab(queries, data)
        best = min(best, time.perf_counter() - start)
    return {
        "bench": "distance_slab",
        "n": n,
        "d": DIMENSION,
        "block_rows": int(queries.shape[0]),
        "repeats": repeats,
        "seconds": best,
        "pairs_per_second": queries.shape[0] * n / best,
        "kernel_mode": kernels.KERNEL_MODE,
        "checksum": float(slab[0].sum()),
    }


def bench_json_release(n: int, rng_seed: int, workers=None) -> dict:
    """One sharded ``good_center`` release on the JL + rotated-axis path.

    Records the quantities the JSON trajectory tracks over time: wall
    seconds, collective round trips, fused-plan count, the active kernel
    mode, and the parent process's peak memory (tracemalloc for the call,
    lifetime RSS for the process).
    """
    from repro.core.config import GoodCenterConfig
    from repro.core.good_center import good_center

    dimension = 16
    target = n // 2
    config = GoodCenterConfig(jl_constant=0.3)
    data = planted_cluster(n=n, d=dimension, cluster_size=int(0.6 * n),
                           cluster_radius=0.05,
                           center=[0.5] * dimension, rng=rng_seed)
    backend = make_backend("sharded", data.points, workers)
    try:
        backend.radius_counts(0.01)            # warm: pool + shared memory
        warm_fanouts = backend.pool_stats()["fanouts"]
        tracemalloc.start()
        start = time.perf_counter()
        result = good_center(data.points, radius=0.05, target=target,
                             params=PrivacyParams(8.0, 1e-5), config=config,
                             rng=5, backend=backend)
        wall = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        stats = backend.pool_stats()
    finally:
        backend.close()
    return {
        "bench": "good_center_sharded",
        "n": n,
        "d": dimension,
        "target": target,
        "found": bool(result.found),
        "wall_seconds": wall,
        "round_trips": int(stats["fanouts"] - warm_fanouts),
        "plans": int(stats["plans"]),
        "kernel_mode": stats["kernel_mode"],
        "parent_peak_tracemalloc_mb": peak / 1e6,
        "parent_peak_rss_mib": parent_peak_rss_mib(),
    }


def bench_json_distributed(n: int, rng_seed: int, num_nodes: int) -> dict:
    """The ``--distributed`` column: the ``bench_json_release`` workload
    over loopback node servers, so the trajectory tracks how much the wire
    (framing, encode/decode, one RPC per node per collective) costs on top
    of the same shard/merge work — the release itself is bitwise the local
    one, which the distributed parity suite pins."""
    from repro.core.config import GoodCenterConfig
    from repro.core.good_center import good_center
    from repro.neighbors.distributed import DistributedBackend
    from repro.neighbors.serve import NodeServer

    dimension = 16
    target = n // 2
    config = GoodCenterConfig(jl_constant=0.3)
    data = planted_cluster(n=n, d=dimension, cluster_size=int(0.6 * n),
                           cluster_radius=0.05,
                           center=[0.5] * dimension, rng=rng_seed)
    servers = [NodeServer().start() for _ in range(num_nodes)]
    try:
        backend = DistributedBackend(data.points,
                                     nodes=[s.address for s in servers],
                                     num_shards=2 * num_nodes)
        try:
            backend.radius_counts(0.01)        # warm: node caches
            warm_fanouts = backend.pool_stats()["fanouts"]
            start = time.perf_counter()
            result = good_center(data.points, radius=0.05, target=target,
                                 params=PrivacyParams(8.0, 1e-5),
                                 config=config, rng=5, backend=backend)
            wall = time.perf_counter() - start
            stats = backend.pool_stats()
        finally:
            backend.close()
    finally:
        for server in servers:
            server.stop()
    return {
        "bench": "good_center_distributed",
        "n": n,
        "d": dimension,
        "target": target,
        "num_nodes": num_nodes,
        "num_shards": int(stats["num_shards"]),
        "found": bool(result.found),
        "wall_seconds": wall,
        "round_trips": int(stats["fanouts"] - warm_fanouts),
        "plans": int(stats["plans"]),
        "kernel_mode": stats["kernel_mode"],
        # Failover counters: all zero on a healthy loopback run — a
        # nonzero value in a trajectory row means the bench itself hit
        # node trouble and its wall time is not comparable.
        "redials": int(stats["redials"]),
        "adopted_shards": int(stats["adopted_shards"]),
        "replayed_tasks": int(stats["replayed_tasks"]),
        "live_nodes": int(stats["live_nodes"]),
    }


def bench_json_service(n: int, rng_seed: int, workers=None,
                       queries_per_tenant: int = 4) -> dict:
    """The ``--service`` column: service throughput at two concurrent
    tenants sharing one resident sharded dataset.

    Measures the deployment-shaped number the library benches cannot:
    queries/s through the full front door — admission-time budget charge,
    bounded FIFO queue, executor hand-off — against a backend that stays
    warm across every query.  One release is asserted bitwise identical to
    the same-seed direct library call, so the row also re-pins service
    parity at benchmark scale.
    """
    import threading

    from repro.core.good_radius import good_radius
    from repro.service import ClusteringService

    dimension = 16
    target = n // 2
    data = planted_cluster(n=n, d=dimension, cluster_size=int(0.6 * n),
                           cluster_radius=0.05,
                           center=[0.5] * dimension, rng=rng_seed)
    params = PrivacyParams(1.0, 1e-7)
    with ClusteringService() as service:
        service.register_dataset("bench", data.points, backend="sharded",
                                 options=(None if workers is None
                                          else {"num_workers": workers}))
        for tenant in ("alice", "bob"):
            service.create_tenant(
                tenant, PrivacyParams(4.0 * queries_per_tenant, 1e-4))
        # Warm the resident pool so the row measures steady-state serving.
        service.good_radius("alice", "bench", target=target, params=params,
                            rng=rng_seed).result()
        results: dict = {}

        def run_tenant(tenant, seed_base):
            jobs = [service.good_radius(tenant, "bench", target=target,
                                        params=params, rng=seed_base + i)
                    for i in range(queries_per_tenant)]
            results[tenant] = [job.result() for job in jobs]

        start = time.perf_counter()
        threads = [
            threading.Thread(target=run_tenant, args=("alice", 100)),
            threading.Thread(target=run_tenant, args=("bob", 200)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        stats = service.service_stats()
        # Service parity at bench scale: re-run one query directly.
        direct = good_radius(data.points, target=target, params=params,
                             rng=100)
        assert results["alice"][0].radius == direct.radius, \
            "service release diverged from the direct call"
    total = 2 * queries_per_tenant
    return {
        "bench": "service_throughput",
        "n": n,
        "d": dimension,
        "target": target,
        "tenants": 2,
        "queries": total,
        "wall_seconds": wall,
        "queries_per_second": total / wall,
        "kernel_mode": kernels.KERNEL_MODE,
        "tenant_spend_epsilon": {
            tenant: stats["tenants"][tenant]["spent"]["epsilon"]
            for tenant in ("alice", "bob")
        },
    }


def bench_json_sample_aggregate(n: int, rng_seed: int, workers=None) -> dict:
    """The ``--sample-aggregate`` column: Algorithm SA, serial vs pipelined.

    Times the same private mean-estimation release twice — once on the
    serial parent-side seed path (materialise the sub-sample, evaluate every
    block in-parent) and once with the whole release compiled into one
    :class:`~repro.neighbors.QueryPlan` carrying a single segmented
    ``block_sums`` query over a 2-worker sharded backend (one plan, one
    round trip; each shard sums its rows in cache-sized waves of whole
    blocks, so these wide blocks still go one block per kernel call).  The
    releases (and the raw block means) are asserted bitwise identical, so
    the row is pure throughput: wall seconds per mode, the speedup, and the
    plan/round-trip accounting of the pipelined run.

    The workload is the wide-row regime: the per-block exact column sums
    dominate and every block is far larger than one wave.  The aggregation
    step uses the
    GUPT-style noisy-average aggregator (dimension-robust and a few
    milliseconds, so the row isolates the block-evaluation stage both paths
    share the aggregator on).
    """
    from repro.neighbors import QueryPlan
    from repro.sample_aggregate import private_mean_estimator
    from repro.sample_aggregate.aggregators import noisy_average_aggregator

    dimension = 512
    num_blocks = 8
    num_shards = 32
    rounds = 3
    block_size = n // num_blocks
    rng = np.random.default_rng(rng_seed)
    data = rng.normal(0.5, 0.05, size=(n, dimension))
    params = PrivacyParams(32.0, 1e-5)

    def release(backend=None):
        # Fresh same-seed generators per call: both modes draw identical
        # block indices and aggregation noise, so the releases must match
        # bitwise (the masked-sum block means are partition-independent).
        aggregator = noisy_average_aggregator(
            clip_radius=1.0, center=np.full(dimension, 0.5))
        return private_mean_estimator(
            data, block_size, params, rng=rng_seed, alpha=0.8,
            subsample_fraction=1.0, aggregator=aggregator,
            collect_diagnostics=True, backend=backend)

    backend = BACKENDS["sharded"](data, num_workers=workers,
                                  num_shards=num_shards)
    try:
        # Warm the pool + shared memory with one tiny plan (radius_counts
        # would be an O(n^2) all-pairs sweep at this n).
        warm = QueryPlan()
        warm.masked_sum(backend.view(), np.arange(4))
        backend.submit(warm).result()
        warm_stats = backend.pool_stats()
        # Interleave the two modes and keep each one's best round, so a
        # shared-host slowdown mid-bench cannot bias the comparison either
        # way (noise only ever adds time; the minimum is the clean run).
        serial_walls = []
        pipelined_walls = []
        for _ in range(rounds):
            start = time.perf_counter()
            serial = release()
            serial_walls.append(time.perf_counter() - start)
            start = time.perf_counter()
            pipelined = release(backend=backend)
            pipelined_walls.append(time.perf_counter() - start)
        stats = backend.pool_stats()
    finally:
        backend.close()

    assert np.array_equal(serial.aggregate_values,
                          pipelined.aggregate_values), \
        "pipelined block means diverged from the serial path"
    assert serial.found == pipelined.found and np.array_equal(
        np.asarray(serial.point), np.asarray(pipelined.point)), \
        "pipelined release diverged from the serial path"
    serial_wall = min(serial_walls)
    wall = min(pipelined_walls)
    timed_runs = rounds
    return {
        "bench": "sample_aggregate",
        "n": n,
        "d": dimension,
        "backend": "sharded",
        "num_shards": num_shards,
        "blocks": num_blocks,
        "block_size": block_size,
        "found": bool(pipelined.found),
        "serial_wall_seconds": serial_wall,
        "wall_seconds": wall,
        "speedup": serial_wall / wall,
        "plans": int(stats["plans"] - warm_stats["plans"]) // timed_runs,
        "round_trips": int(stats["fanouts"]
                           - warm_stats["fanouts"]) // timed_runs,
        "kernel_mode": stats["kernel_mode"],
        "parent_peak_rss_mib": parent_peak_rss_mib(),
    }


def run_json(args) -> None:
    """``--json``: write the persisted benchmark trajectory and print a recap."""
    configs = []
    for n in args.sizes:
        print(f"timing distance slab at n={n} "
              f"(kernel mode: {kernels.KERNEL_MODE}) ...", flush=True)
        configs.append(bench_json_distance_slab(n, args.rng))
    release_n = min(min(args.sizes), JSON_RELEASE_CAP)
    print(f"running sharded good_center release at n={release_n}, d=16 ...",
          flush=True)
    configs.append(bench_json_release(release_n, args.rng, args.workers))
    if args.distributed:
        print(f"running distributed good_center release at n={release_n}, "
              f"d=16, {args.distributed} loopback nodes ...", flush=True)
        configs.append(bench_json_distributed(release_n, args.rng,
                                              args.distributed))
    if args.service:
        # The service row runs at the *largest* requested size (capped):
        # its point is steady-state serving against a warm resident pool,
        # which only shows at benchmark scale.
        service_n = min(max(args.sizes), JSON_RELEASE_CAP)
        print(f"running service throughput at n={service_n}, d=16, "
              f"2 concurrent tenants ...", flush=True)
        configs.append(bench_json_service(service_n, args.rng, args.workers))
    if args.sample_aggregate:
        # Uncapped on purpose: the pipelined SA path exists to reach sizes
        # the parent-side path cannot, so the row is only meaningful at the
        # full n (default 100k, d=512 — the wide-row regime).
        print(f"running sample-and-aggregate (serial vs pipelined) at "
              f"n={args.sample_aggregate}, d=512 ...", flush=True)
        configs.append(bench_json_sample_aggregate(args.sample_aggregate,
                                                   args.rng, args.workers))
    payload = {
        "schema": 1,
        "generated_by": "benchmarks/bench_backends.py --json",
        "kernel": kernels.kernel_info(),
        "sizes": list(args.sizes),
        "configs": configs,
    }
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {args.json}")
    for config in configs:
        if config["bench"] == "distance_slab":
            print(f"  distance_slab        n={config['n']:>7}: "
                  f"{config['seconds']:.4f}s  "
                  f"({config['pairs_per_second']:.3g} pairs/s, "
                  f"{config['kernel_mode']})")
        elif config["bench"] == "service_throughput":
            print(f"  service_throughput   n={config['n']:>7}: "
                  f"{config['wall_seconds']:.3f}s for {config['queries']} "
                  f"queries across {config['tenants']} tenants "
                  f"({config['queries_per_second']:.2f} q/s, "
                  f"{config['kernel_mode']})")
        elif config["bench"] == "sample_aggregate":
            print(f"  sample_aggregate     n={config['n']:>7}: "
                  f"serial {config['serial_wall_seconds']:.3f}s -> "
                  f"pipelined {config['wall_seconds']:.3f}s "
                  f"({config['speedup']:.2f}x, {config['blocks']} blocks, "
                  f"{config['round_trips']} round trips, "
                  f"{config['kernel_mode']})")
        else:
            nodes = (f", {config['num_nodes']} nodes"
                     if "num_nodes" in config else "")
            print(f"  {config['bench']:<20} n={config['n']:>7}: "
                  f"{config['wall_seconds']:.3f}s, "
                  f"{config['round_trips']} round trips{nodes}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help="problem sizes (default 1000 5000 20000; with "
                             "--json, 20000 100000)")
    parser.add_argument("--seed-max", type=int, default=20000,
                        help="largest n at which the O(n^2)-memory seed "
                             "reference is run (lower this on small machines)")
    parser.add_argument("--end-to-end", action="store_true",
                        help="also time the full private good_radius release")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker-process count for the sharded backend "
                             "(default: CPU count; 0 = serial fallback)")
    parser.add_argument("--backends", nargs="+", default=None,
                        choices=sorted(BACKENDS),
                        help="restrict the compared backends (e.g. skip the "
                             "O(n^2)-memory dense matrix at n >= 50k: "
                             "--backends chunked tree sharded)")
    parser.add_argument("--large-target", action="store_true",
                        help="profile t = 0.9 n (outlier screening): "
                             "persisted vs streaming L(r, S), with peak "
                             "memory")
    parser.add_argument("--good-center-jl", action="store_true",
                        help="profile GoodCenter's JL-path partition search: "
                             "inline parent hashing vs the view-batched "
                             "sharded path (d=32, parity asserted)")
    parser.add_argument("--good-center-rotated", action="store_true",
                        help="profile the full rotated-stage release (steps "
                             "8-11): in-parent vs shard-side masked "
                             "aggregation, with the parent-process peak-"
                             "memory column (d=16, release parity asserted)")
    parser.add_argument("--attempts", type=int, default=64,
                        help="partition-search attempts timed per mode in "
                             "--good-center-jl")
    parser.add_argument("--json", nargs="?", const="BENCH_backends.json",
                        default=None, metavar="PATH",
                        help="write the persisted benchmark trajectory to "
                             "PATH (default BENCH_backends.json): distance-"
                             "slab kernel timings per size plus one sharded "
                             "good_center release with wall time, round "
                             "trips, kernel mode and parent peak memory")
    parser.add_argument("--distributed", nargs="?", const=2, default=None,
                        type=int, metavar="NODES",
                        help="with --json: also run the good_center release "
                             "through the distributed backend over NODES "
                             "(default 2) loopback node servers, appending "
                             "a good_center_distributed column")
    parser.add_argument("--service", action="store_true",
                        help="with --json: also run the multi-tenant "
                             "service throughput workload (two concurrent "
                             "tenants, good_radius queries against one "
                             "resident sharded dataset), appending a "
                             "service_throughput column with queries/s")
    parser.add_argument("--sample-aggregate", nargs="?", const=100000,
                        default=None, type=int, metavar="N",
                        help="with --json: also run the sample-and-"
                             "aggregate release at N rows (default 100000, "
                             "d=512) on the serial parent-side path and "
                             "the one-plan block_sums path "
                             "(parity-asserted), appending a "
                             "sample_aggregate column with both wall times "
                             "and the speedup")
    parser.add_argument("--rng", type=int, default=0)
    args = parser.parse_args()
    if args.sizes is None:
        args.sizes = list(JSON_SIZES) if args.json else [1000, 5000, 20000]

    if args.json:
        run_json(args)
        return

    if args.good_center_rotated:
        all_rows = []
        for n in args.sizes:
            print(f"profiling rotated-stage release at n={n}, d=16 ...",
                  flush=True)
            all_rows.extend(bench_good_center_rotated(n, args.rng,
                                                      args.workers))
        print()
        print(format_table(all_rows, columns=[
            "n", "d", "k", "mode", "release_s", "parent_peak_mb",
            "round_trips", "speedup",
        ]))
        print("\n(releases asserted bitwise identical between both modes; "
              "round_trips counts the backend's collective fan-outs over "
              "the whole call — each GoodCenter stage is one QueryPlan; "
              "parent_peak_mb is parent-process "
              "tracemalloc — in pool mode the shard-side row never holds "
              "the selected set, its rotation, or any membership array; "
              "with --workers 0 the serial fallback computes shard partials "
              "in-parent one shard at a time)")
        return

    if args.good_center_jl:
        all_rows = []
        for n in args.sizes:
            print(f"profiling JL partition search at n={n}, d=32 ...",
                  flush=True)
            all_rows.extend(bench_good_center_jl(n, args.rng, args.workers,
                                                 args.attempts))
        print()
        print(format_table(all_rows, columns=[
            "n", "k", "mode", "attempts", "attempts_per_s",
            "parent_peak_mb", "speedup",
        ]))
        print("\n(counts asserted identical between modes; parent_peak_mb is "
              "parent-process tracemalloc — in pool mode the view-batched "
              "row never holds the (n, k) projected image, the inline row "
              "must; with --workers 0 the serial fallback caches shard "
              "images in-parent like a worker would)")
        return

    if args.large_target:
        all_rows = []
        for n in args.sizes:
            print(f"profiling t = 0.9 n at n={n} ...", flush=True)
            all_rows.extend(bench_large_target(n, args.rng, args.workers))
        print()
        print(format_table(all_rows, columns=[
            "n", "t", "backend", "mode", "profile_s", "peak_mb",
            "persisted_mb", "score_at_max",
        ]))
        print("\n(persisted_mb = the 8*n*t bytes the O(n*t) statistic would "
              "hold; the streaming rows must peak far below it)")
        return

    all_rows = []
    for n in args.sizes:
        print(f"benchmarking n={n} ...", flush=True)
        all_rows.extend(bench_one(n, args.seed_max, args.end_to_end, args.rng,
                                  args.workers, args.backends))
    print()
    columns = ["n", "t", "backend", "profile_s", "speedup", "auto_pick"]
    if args.end_to_end:
        columns[-1:-1] = ["good_radius_s", "released_radius"]
    print(format_table(all_rows, columns=columns))
    print("\n(* = auto_backend's pick at that size; speedup is vs the seed "
          "dense Gram+sort+row-loop path on the same radius grid)")


if __name__ == "__main__":
    main()
