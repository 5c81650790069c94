"""The library names the benchmark's tracer wraps must stay in place.

``clusterbench/tracing.py::install_layers`` replaces a fixed set of library
functions and methods by name.  A rename or deletion in the library breaks
every ``--trace 1`` benchmark run, and nothing else would notice: these
tests install the tracer, check that each name is wrapped, and check that
``uninstall`` restores every original.
"""

import importlib
import inspect

import pytest

from clusterbench.tracing import Tracer, install_layers
from repro.neighbors import DenseBackend
from repro.quasiconcave.quality import CallableQuality

#: ``(module, class or None, attribute)`` for every library name the tracer
#: patches.  Class entries name the class that defines the attribute.
HOOKS = [
    ("repro.neighbors.base", "NeighborBackend", "capped_average_scores"),
    ("repro.neighbors.base", "NeighborBackend", "truncated_squared"),
    ("repro.neighbors.base", "NeighborBackend", "record_speculation"),
    ("repro.neighbors.base", "PlanFuture", "result"),
    ("repro.kernels", None, "squared_distance_slab"),
    ("repro.kernels", None, "fused_box_labels"),
    ("repro.kernels", None, "fixed_point_column_partials"),
    ("repro.core.one_cluster", None, "good_radius"),
    ("repro.core.one_cluster", None, "good_center"),
    ("repro.core.good_radius", None, "rec_concave"),
    ("repro.sample_aggregate.aggregators", None, "one_cluster"),
    ("repro.quasiconcave.quality", "CallableQuality", "__init__"),
    ("repro.service.service", "ClusteringService", "submit"),
    ("repro.accounting.budget", "BudgetedLedger", "charge"),
]


def hook_ids():
    return [".".join(part for part in hook if part) for hook in HOOKS]


def current(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is None:
        return getattr(owner, attr)
    return getattr(owner, class_name).__dict__[attr]


@pytest.mark.parametrize("hook", HOOKS, ids=hook_ids())
def test_hook_is_wrapped_then_restored(hook):
    original = current(*hook)
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert current(*hook) is not original, "tracer did not wrap it"
    finally:
        tracer.uninstall()
    assert current(*hook) is original


def test_callable_quality_takes_batch_function():
    assert "batch_function" in inspect.signature(CallableQuality).parameters


def test_record_speculation_is_a_traced_no_op():
    """The shim stays callable with the tracer's (stage, hit) signature and
    records one span per call, so the speculation metrics read 0, not an
    error."""
    backend = DenseBackend([[0.0], [1.0]])
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert backend.record_speculation("stage", True) is None
    finally:
        tracer.uninstall()
    assert [span.name for span in tracer.spans] == ["neighbors.speculation"]
