"""Self-tests of the benchmark's checker, seeds, statistics and tracing."""

from __future__ import annotations

import json
import random
import threading
import time
import types
from pathlib import Path

import pytest

from clusterbench import catalog
from clusterbench.measure import (
    OpRecord,
    closed_loop,
    op_seed,
    peak_rss_mb,
    tail_latency,
)
from clusterbench.tracing import Tracer, attribute, layer_totals
from clusterbench.verify import (
    Verification,
    check_ledger,
    differences,
    one_cluster_fingerprint,
    spread_sample,
)
from repro import PrivacyParams, one_cluster
from repro.datasets import planted_cluster

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def release():
    data = planted_cluster(n=800, d=2, cluster_size=300, cluster_radius=0.05,
                           rng=3)
    result = one_cluster(data.points, 200, PrivacyParams(4.0, 1e-6), rng=5)
    assert result.found
    return result


def _flip_bit(hex_bytes: str, bit: int) -> str:
    raw = bytearray(bytes.fromhex(hex_bytes))
    raw[bit // 8] ^= 1 << (bit % 8)
    return raw.hex()


# ---------------------------------------------------------------------- #
# Output verification
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("field", ["radius", "center", "radius_bound"])
def test_one_flipped_bit_is_flagged(release, field):
    expected = one_cluster_fingerprint(release)
    actual = dict(expected)
    actual[field] = _flip_bit(actual[field], 0)
    verification = Verification()
    verification.compare("op", expected, actual)
    assert not verification.ok
    assert field in verification.mismatches[0]


def test_identical_releases_pass(release):
    verification = Verification()
    verification.compare("op", one_cluster_fingerprint(release),
                         one_cluster_fingerprint(release))
    assert verification.ok
    assert (verification.compared, verification.located) == (1, 1)


def test_found_flag_is_compared(release):
    expected = one_cluster_fingerprint(release)
    assert differences(expected, dict(expected, found=False)) == ["found"]


def test_zero_compared_releases_fail():
    verification = Verification()
    assert not verification.ok
    assert "no release was compared" in verification.problems


def test_no_located_cluster_fails():
    unlocated = {"found": False, "radius": "00", "center": None,
                 "radius_bound": "00"}
    verification = Verification()
    verification.compare("op", unlocated, dict(unlocated))
    assert verification.compared == 1
    assert not verification.ok
    assert "no compared release located a cluster" in verification.problems


def test_ledger_spend_tolerates_float_drift():
    epsilon = 1e-7
    spent = sum([epsilon] * 13)
    assert spent != 1.3e-06  # the drift the tolerance exists for
    stats = {"queries": 13, "refused": 0,
             "spent": {"epsilon": spent, "delta": 13 * 1e-9}}
    verification = Verification()
    check_ledger(verification, "t", stats, 13, epsilon, 1e-9)
    check_ledger(verification, "t",
                 dict(stats, spent={"epsilon": 1.3e-06, "delta": 1.3e-08}),
                 13, epsilon, 1e-9)
    assert not verification.mismatches
    check_ledger(verification, "t", dict(stats, queries=12, refused=1), 13,
                 epsilon, 1e-9)
    assert len(verification.mismatches) == 2


def test_spread_sample_covers_the_window():
    assert spread_sample(10, 3) == [0, 4, 9]
    assert spread_sample(2, 3) == [0, 1]
    assert spread_sample(0, 3) == []


# ---------------------------------------------------------------------- #
# Op seeds
# ---------------------------------------------------------------------- #
def _seeds_under_jitter(jitter_seed: int) -> dict:
    jitter = random.Random(jitter_seed)
    lock = threading.Lock()

    def op(client, index, seed):
        with lock:
            pause = jitter.random() * 0.003
        time.sleep(pause)
        record = OpRecord(client, index, seed, submitted=time.monotonic())
        record.done = time.monotonic()
        return record

    records = closed_loop(op, clients=3, workload_seed=11,
                          deadline=time.monotonic() + 60, max_ops=6)
    return {record.key: record.seed for record in records}


def test_op_seeds_do_not_depend_on_thread_interleaving():
    first = _seeds_under_jitter(1)
    second = _seeds_under_jitter(2)
    assert first == second
    assert len(first) == 18
    assert first == {(client, index): op_seed(11, client, index)
                     for client in range(3) for index in range(6)}
    assert len(set(first.values())) == 18


def test_op_seed_is_a_pure_function():
    assert op_seed(4, 0, 7) == op_seed(4, 0, 7)
    assert len({op_seed(4, 0, 7), op_seed(5, 0, 7), op_seed(4, 1, 7),
                op_seed(4, 0, 8)}) == 4


# ---------------------------------------------------------------------- #
# Statistics and memory
# ---------------------------------------------------------------------- #
def test_tail_keeps_ten_samples_beyond():
    latencies = list(range(1, 41))
    value, percentile, samples = tail_latency(latencies)
    assert sum(latency > value for latency in latencies) == 10
    assert (value, percentile, samples) == (30, 75.0, 40)
    assert tail_latency([3, 1, 2]) == (3, 100.0, 3)


def test_peak_rss_is_positive():
    assert peak_rss_mb() > 1.0


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
def test_self_time_excludes_children_and_wrappers_are_removed():
    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        module.inner()

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer")
    module.outer()
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    spans = {span.name: span for span in tracer.spans}
    assert spans["inner"].parent is spans["outer"]
    assert spans["outer"].self_time == pytest.approx(
        spans["outer"].duration - spans["inner"].duration)
    assert spans["outer"].self_time < spans["outer"].duration - 0.015
    totals = layer_totals(tracer.spans)
    assert totals["outer"]["calls"] == 1


def test_spans_are_attributed_to_the_job_interval_on_their_thread():
    tracer = Tracer()
    module = types.SimpleNamespace(work=lambda: time.sleep(0.002))
    tracer.wrap(module, "work", "work")
    intervals = []
    for job in range(3):
        start = time.monotonic()
        module.work()
        intervals.append((("client", job), threading.get_ident(), start,
                          time.monotonic()))
    module.work()  # outside every job
    tracer.uninstall()
    owned, orphans = attribute(tracer.spans, intervals)
    assert sorted(owned) == [("client", job) for job in range(3)]
    assert all(len(spans) == 1 for spans in owned.values())
    assert len(orphans) == 1
    other_thread = [(key, thread + 1, start, end)
                    for key, thread, start, end in intervals]
    owned, orphans = attribute(tracer.spans, other_thread)
    assert not owned and len(orphans) == 4


def test_class_methods_and_overrides_are_traced():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        def run(self):
            return "child"

    originals = (Base.__dict__["run"], Child.__dict__["run"])
    tracer = Tracer()
    tracer.wrap_method(Base, "run", "run")
    assert (Base().run(), Child().run()) == ("base", "child")
    tracer.uninstall()
    assert len(tracer.spans) == 2
    assert (Base.__dict__["run"], Child.__dict__["run"]) == originals


# ---------------------------------------------------------------------- #
# Metric catalogue
# ---------------------------------------------------------------------- #
def test_metric_names_use_the_allowed_characters():
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert catalog.NAME_PATTERN.match(metric.name), metric.name
    names = [metric.name for metric in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))


def test_catalog_matches_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER]
    assert [workload["name"] for workload in spec["workloads"]] == list(
        catalog.WORKLOADS)
    assert [workload["why"] for workload in spec["workloads"]] == list(
        catalog.WORKLOADS.values())


def test_every_layer_metric_has_a_prediction():
    layer_names = {metric.name for metric in catalog.PER_LAYER}
    assert set(catalog.PREDICTIONS) == layer_names
    known = {metric.name for metric in catalog.END_TO_END} | layer_names
    for moves in catalog.PREDICTIONS.values():
        for metric, workload in moves:
            assert metric in known and workload in catalog.WORKLOADS
