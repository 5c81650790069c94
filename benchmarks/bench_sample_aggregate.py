"""Benchmark E6 — sample & aggregate: 1-cluster vs noisy-average aggregator.

``--backend`` forwards a neighbor-backend name into the experiment (it
accelerates the default 1-cluster aggregation; release-neutral).  The
2-worker smoke below runs the plan-capable mean estimator once serially and
once with the whole release compiled into one query plan (a single
segmented ``block_sums`` query) over a sharded pool, asserts the two
releases are bitwise identical, and asserts the release cost exactly one
plan and one fan-out.
"""

import numpy as np

from repro.experiments.sample_aggregate import run_sample_aggregate


def test_sample_aggregate_aggregators(benchmark, report, backend_choice):
    name, _ = backend_choice
    kwargs = dict(secondary_weights=(0.0, 0.2, 0.4), rng=0)
    if name is not None:
        kwargs["backend"] = name
    rows = report(benchmark, "Sample & aggregate (GMM dominant mean)",
                  run_sample_aggregate, **kwargs)
    assert len(rows) == 6
    ours = [row for row in rows if row["method"] == "one_cluster_aggregator"]
    assert any(row["found"] for row in ours)


def test_one_plan_release_parity(backend_choice):
    """2-worker smoke: one plan per release moves time, never the release."""
    from repro.accounting.params import PrivacyParams
    from repro.neighbors import BACKENDS
    from repro.sample_aggregate import private_mean_estimator

    _, workers = backend_choice
    rng = np.random.default_rng(0)
    data = rng.normal(loc=[0.4, 0.6], scale=0.05, size=(6000, 2))
    params = PrivacyParams(12.0, 1e-4)
    kwargs = dict(alpha=0.8, subsample_fraction=1.0 / 3.0,
                  collect_diagnostics=True)

    serial = private_mean_estimator(data, block_size=10, params=params,
                                    rng=1, **kwargs)
    backend = BACKENDS["sharded"](
        data, num_workers=2 if workers is None else workers, num_shards=4)
    try:
        before = backend.pool_stats()
        pipelined = private_mean_estimator(data, block_size=10, params=params,
                                           rng=1, backend=backend, **kwargs)
        after = backend.pool_stats()
    finally:
        backend.close()

    assert after["plans"] - before["plans"] == 1
    assert after["fanouts"] - before["fanouts"] == 1

    assert np.array_equal(serial.aggregate_values, pipelined.aggregate_values)
    assert serial.found == pipelined.found
    assert serial.found
    assert np.array_equal(np.asarray(serial.point),
                          np.asarray(pipelined.point))
