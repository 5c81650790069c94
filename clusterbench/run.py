"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 clusterbench/run.py --workload service_mixed --seed 1 \
        --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory.  The run sets
the system up several times (``setup_s`` is the median), measures closed
loops for ``--seconds``, then recomputes a sample of the timed releases
through an independent path and compares them bit for bit.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run measures two half
windows with the same op seeds, untraced then traced; the per-layer
metrics come from the traced one and ``trace.overhead_share`` compares the
two.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: How many times set-up is repeated; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Where a traced run writes its spans (one JSON line per span).
TRACE_DIR = ROOT / ".bench_out"


def _import_library() -> str:
    """Put ``src/`` first on the path and import the library from there;
    returns an error message, or ``""`` on success."""
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        return f"cannot import the library from {source}: {error}"
    location = Path(repro.__file__).resolve()
    if source.resolve() not in location.parents:
        return f"the library was imported from {location}, not from {source}"
    return ""


class Window:
    """One measured window: its records and the counters around it."""

    def __init__(self, workload, seconds: float, tag: int, tracer=None):
        from clusterbench.measure import closed_loop
        from clusterbench.tracing import install_layers

        workload.begin_window(tag)
        before = workload.pool_counters() if tracer is not None else None
        try:
            if tracer is not None:
                install_layers(tracer)
            self.start = time.monotonic()
            self.records = closed_loop(workload.op, workload.clients,
                                       workload.seed, self.start + seconds,
                                       workload.max_ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.end = max(record.done for record in self.records)
        self.tracer = tracer
        self.counters = {}
        if before is not None:
            after = workload.pool_counters()
            self.counters = {name: after[name] - before[name]
                             for name in before}

    @property
    def completed(self):
        return [record for record in self.records if record.ok]


def end_to_end(window: Window, setup_times, rss_mb: float) -> tuple:
    from clusterbench.measure import tail_latency

    done = window.completed
    latencies = [record.latency for record in done]
    tail, percentile, samples = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(done) / (window.end - window.start),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "completed_share": len(done) / len(window.records),
        "found_share": sum(record.found for record in done) / len(done),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup_times),
        "latency_tail_s": (f"p{percentile:.1f} of {samples} samples"
                           + (" (too few for ten beyond: the maximum)"
                              if samples <= 10 else "")),
        "completed_share": (
            f"failed_share {1 - values['completed_share']:.4f}: "
            f"{sum(r.refused for r in window.records)} refused + "
            f"{sum(not r.ok and not r.refused for r in window.records)} "
            f"failed of {len(window.records)}"),
    }
    return values, notes


def _queue_depth_max(jobs) -> int:
    """Most jobs ever admitted but not yet started, seen at a submit."""
    depth = 0
    for job in jobs:
        moment = job["submitted_at"]
        depth = max(depth, sum(1 for other in jobs
                               if other["submitted_at"] <= moment
                               < other["started_at"]))
    return depth


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(plain: Window, traced: Window) -> tuple:
    from clusterbench.tracing import attribute, layer_totals

    done = traced.completed
    ops = len(done)
    intervals = [(record.key, thread, start, end) for record in done
                 for thread, start, end in record.intervals]
    owned, orphans = attribute(traced.tracer.spans, intervals)
    totals = layer_totals(span for spans in owned.values() for span in spans)

    def per_op(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0) / ops

    jobs = [record.extra for record in done if "started_at" in record.extra]
    blocks = [record.extra["blocks"] for record in done
              if "blocks" in record.extra]
    speculation = totals.get("neighbors.speculation", {})
    aggregate_s = per_op("sample_aggregate.aggregate", "time")
    earlier = {record.key: record for record in plain.completed}
    pairs = [(earlier[record.key], record) for record in done
             if record.key in earlier]
    untraced_time = sum(first.latency for first, _ in pairs)
    counter = traced.counters
    values = {
        "service.submit_s": per_op("service.submit", "time"),
        "service.queue_wait_s": _mean(job["started_at"] - job["submitted_at"]
                                      for job in jobs),
        "service.run_s": _mean(job["finished_at"] - job["started_at"]
                               for job in jobs),
        "service.queue_depth_max": float(_queue_depth_max(jobs)),
        "accounting.charges": per_op("accounting.charge", "calls"),
        "accounting.charge_s": per_op("accounting.charge", "time"),
        "core.good_radius_s": per_op("core.good_radius", "self"),
        "core.good_center_s": per_op("core.good_center", "self"),
        "quasiconcave.rec_concave_s": per_op("quasiconcave.rec_concave",
                                             "self"),
        "quasiconcave.quality_batches": per_op("quasiconcave.quality_batch",
                                               "calls"),
        "neighbors.profile_calls": per_op("neighbors.profile", "calls"),
        "neighbors.profile_s": per_op("neighbors.profile", "self"),
        "neighbors.truncated_s": per_op("neighbors.truncated", "self"),
        "neighbors.speculation_hit_ratio": (
            speculation["work"] / speculation["calls"] if speculation else 0.0),
        "neighbors.speculations": per_op("neighbors.speculation", "calls"),
        "neighbors.plans_per_op": counter.get("plans", 0) / ops,
        "neighbors.fanouts_per_op": counter.get("fanouts", 0) / ops,
        "neighbors.shard_tasks_per_op": counter.get("shard_tasks", 0) / ops,
        "neighbors.plan_wait_s": per_op("neighbors.plan_wait", "time"),
        "kernels.slab_calls": per_op("kernels.slab", "calls"),
        "kernels.slab_s": per_op("kernels.slab", "time"),
        "kernels.slab_bytes_computed": per_op("kernels.slab", "work"),
        "kernels.box_label_s": per_op("kernels.box_label", "time"),
        "kernels.fixed_point_s": per_op("kernels.fixed_point", "time"),
        "sample_aggregate.blocks_per_op": _mean(blocks),
        "sample_aggregate.aggregate_s": aggregate_s,
        "sample_aggregate.block_eval_s": (
            _mean(record.latency for record in done) - aggregate_s
            if blocks else 0.0),
        "trace.spans_per_op": len(traced.tracer.spans) / ops,
        "trace.overhead_share": (
            sum(second.latency for _, second in pairs) / untraced_time - 1.0
            if untraced_time > 0 else 0.0),
    }
    notes = {
        "trace.overhead_share": (f"latency of {len(pairs)} ops run both "
                                 "untraced and traced"),
        "trace.spans_per_op": (f"{len(traced.tracer.spans)} spans, "
                               f"{len(orphans)} outside every op"),
        "neighbors.speculation_hit_ratio": (
            f"{int(speculation.get('work', 0))} hits of "
            f"{int(speculation.get('calls', 0))} speculations"),
    }
    return values, notes


def _stop_helper_processes() -> None:
    """Stop the multiprocessing resource tracker (started for the sharded
    backend's shared memory) and wait for it, so a run leaves no process
    behind; it would otherwise exit only after this process has."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def environment(workload) -> dict:
    import numpy
    import repro.kernels
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_mode": repro.kernels.KERNEL_MODE,
        "scipy": scipy_version,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "system": workload.stamp(),
    }


def _print_metrics(catalog_metrics, values: dict, notes: dict) -> dict:
    printed = {}
    for metric in catalog_metrics:
        value = values[metric.name]
        note = notes.get(metric.name, "")
        print(f"{metric.name:34s} {value:14.6g} {metric.unit:6s} {note}")
        printed[metric.name] = {"value": value, "unit": metric.unit}
    return printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    error = _import_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    from clusterbench import catalog
    from clusterbench.measure import descendant_pids, peak_rss_mb
    from clusterbench.tracing import Tracer
    from clusterbench.verify import Verification, check_pairs
    from clusterbench.workloads import WORKLOADS, verify_sample

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    verification = Verification()
    try:
        for repeat in range(SETUP_REPEATS):
            start = time.monotonic()
            workload.build()
            workload.warm()
            setup_times.append(time.monotonic() - start)
            if repeat < SETUP_REPEATS - 1:
                workload.close()
        if args.trace:
            windows = [Window(workload, args.seconds / 2, 0),
                       Window(workload, args.seconds / 2, 1, Tracer())]
        else:
            windows = [Window(workload, args.seconds, 0)]
        measured = windows[-1]
        rss_mb = peak_rss_mb()
        stamp = environment(workload)
        verify_sample(workload, measured.records, verification)
        verify_ledgers = getattr(workload, "verify_ledgers", None)
        if verify_ledgers is not None:
            verify_ledgers([window.records for window in windows],
                           verification)
        if args.trace:
            check_pairs(verification, windows[0].records, measured.records)
    finally:
        workload.close()
        _stop_helper_processes()
    leftover = descendant_pids(os.getpid())
    if leftover:
        verification.fail(f"processes still running after close: {leftover}")

    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    print(f"# environment {json.dumps(stamp, sort_keys=True)}")
    attempted = sum(len(window.records) for window in windows)
    failed = sum(not record.ok for window in windows
                 for record in window.records)
    metrics = {}
    if measured.completed:
        if args.trace:
            values, notes = per_layer(windows[0], measured)
            metrics = _print_metrics(catalog.PER_LAYER, values, notes)
            spans_file = TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
            try:
                TRACE_DIR.mkdir(exist_ok=True)
                measured.tracer.dump(str(spans_file))
            except OSError as error:
                print(f"warning: spans not written: {error}", file=sys.stderr)
            else:
                print(f"# spans written to {spans_file.relative_to(ROOT)}")
        else:
            values, notes = end_to_end(measured, setup_times, rss_mb)
            metrics = _print_metrics(catalog.END_TO_END, values, notes)
    else:
        verification.fail("no op completed")
    print(f"# verification: {verification.compared} releases compared, "
          f"{verification.located} located a cluster, "
          f"{len(verification.problems)} problems")
    for problem in verification.problems:
        print(f"MISMATCH {problem}")
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(json.dumps({"correct": verification.ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if verification.ok else 1


if __name__ == "__main__":
    sys.exit(main())
