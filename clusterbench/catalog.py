"""Every metric the benchmark reports, and what each layer metric predicts.

``BENCHMARK.json`` repeats the names, units and directions listed here (a
test keeps the two in step).  The prediction table has no slot in
``BENCHMARK.json``, so it lives here: for each per-layer metric, the
end-to-end metrics and workloads it should move.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Tuple

#: The character set every metric name is drawn from.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS: Dict[str, str] = {
    "service_mixed": (
        "two tenants interleave targets on one resident tree-backed dataset: "
        "admission, queueing, budget debits and the statistic re-sort"
    ),
    "cold_release": (
        "one-shot library releases on fresh d=16 datasets: backend build, "
        "distance-slab kernel and truncated statistic, no service"
    ),
    "sample_aggregate": (
        "Section-6 mean estimator, 500 blocks of 40 over a resident "
        "2-worker sharded backend: per-block plans and shard round trips"
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end only: the share of the parent's median by which the metric
    #: may worsen before a change counts as a regression.
    bound: float = 0.0


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_s", "s", "lower", 0.25),
    Metric("latency_tail_s", "s", "lower", 0.25),
    Metric("completed_share", "share", "higher", 0.05),
    Metric("found_share", "share", "higher", 0.1),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
]

PER_LAYER: List[Metric] = [
    Metric("service.submit_s", "s", "lower"),
    Metric("service.queue_wait_s", "s", "lower"),
    Metric("service.run_s", "s", "lower"),
    Metric("service.queue_depth_max", "count", "lower"),
    Metric("accounting.charges", "count", "lower"),
    Metric("accounting.charge_s", "s", "lower"),
    Metric("core.good_radius_s", "s", "lower"),
    Metric("core.good_center_s", "s", "lower"),
    Metric("quasiconcave.rec_concave_s", "s", "lower"),
    Metric("quasiconcave.quality_batches", "count", "lower"),
    Metric("neighbors.profile_calls", "count", "lower"),
    Metric("neighbors.profile_s", "s", "lower"),
    Metric("neighbors.truncated_s", "s", "lower"),
    Metric("neighbors.speculation_hit_ratio", "share", "higher"),
    Metric("neighbors.speculations", "count", "lower"),
    Metric("neighbors.plans_per_op", "count", "lower"),
    Metric("neighbors.fanouts_per_op", "count", "lower"),
    Metric("neighbors.shard_tasks_per_op", "count", "lower"),
    Metric("neighbors.plan_wait_s", "s", "lower"),
    Metric("kernels.slab_calls", "count", "lower"),
    Metric("kernels.slab_s", "s", "lower"),
    Metric("kernels.slab_bytes_computed", "bytes", "lower"),
    Metric("kernels.box_label_s", "s", "lower"),
    Metric("kernels.fixed_point_s", "s", "lower"),
    Metric("sample_aggregate.blocks_per_op", "count", "lower"),
    Metric("sample_aggregate.aggregate_s", "s", "lower"),
    Metric("sample_aggregate.block_eval_s", "s", "lower"),
    Metric("trace.spans_per_op", "count", "lower"),
    Metric("trace.overhead_share", "share", "lower"),
]

#: Per-layer metric -> the (end-to-end metric, workload) pairs it should
#: move.  Every per-layer value is per completed op unless its name says
#: otherwise (``queue_depth_max`` is a maximum, ratios and shares are
#: dimensionless); layer times are self times, so they partition an op.
PREDICTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "service.submit_s": (("latency_p50_s", "service_mixed"),),
    "service.queue_wait_s": (("latency_p50_s", "service_mixed"),
                             ("latency_tail_s", "service_mixed")),
    "service.run_s": (("ops_per_s", "service_mixed"),),
    "service.queue_depth_max": (("latency_tail_s", "service_mixed"),),
    "accounting.charges": (("latency_p50_s", "service_mixed"),),
    "accounting.charge_s": (("latency_p50_s", "service_mixed"),),
    "core.good_radius_s": (("ops_per_s", "service_mixed"),
                           ("ops_per_s", "cold_release")),
    "core.good_center_s": (("ops_per_s", "service_mixed"),
                           ("ops_per_s", "cold_release")),
    "quasiconcave.rec_concave_s": (("ops_per_s", "service_mixed"),),
    "quasiconcave.quality_batches": (("ops_per_s", "service_mixed"),),
    "neighbors.profile_calls": (("ops_per_s", "service_mixed"),
                                ("latency_p50_s", "cold_release")),
    "neighbors.profile_s": (("ops_per_s", "service_mixed"),
                            ("latency_p50_s", "cold_release")),
    "neighbors.truncated_s": (("latency_p50_s", "cold_release"),
                              ("ops_per_s", "service_mixed")),
    "neighbors.speculation_hit_ratio": (("latency_p50_s", "cold_release"),),
    "neighbors.speculations": (("latency_p50_s", "cold_release"),),
    "neighbors.plans_per_op": (("ops_per_s", "sample_aggregate"),),
    "neighbors.fanouts_per_op": (("ops_per_s", "sample_aggregate"),),
    "neighbors.shard_tasks_per_op": (("ops_per_s", "sample_aggregate"),),
    "neighbors.plan_wait_s": (("latency_p50_s", "sample_aggregate"),),
    "kernels.slab_calls": (("latency_p50_s", "cold_release"),),
    "kernels.slab_s": (("latency_p50_s", "cold_release"),),
    "kernels.slab_bytes_computed": (("latency_p50_s", "cold_release"),),
    "kernels.box_label_s": (("core.good_center_s", "cold_release"),),
    "kernels.fixed_point_s": (("ops_per_s", "sample_aggregate"),),
    "sample_aggregate.blocks_per_op": (("ops_per_s", "sample_aggregate"),),
    "sample_aggregate.aggregate_s": (("ops_per_s", "sample_aggregate"),),
    "sample_aggregate.block_eval_s": (("ops_per_s", "sample_aggregate"),),
    "trace.spans_per_op": (),
    "trace.overhead_share": (),
}
