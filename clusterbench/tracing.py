"""Span recording around the library's public layer boundaries.

:class:`Tracer` replaces a function or method at its module or class
attribute with a wrapper that records one :class:`Span` per call — name,
thread, start, end, parent — and restores every original on
:meth:`Tracer.uninstall`.  Spans are kept in memory.  Nothing inside the
library changes; call sites that look the attribute up at call time see the
wrapper.

Only the process that installed the tracer records: shard workers forked
from it call straight through, so their work shows only through the
backend's ``pool_stats()`` counters.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "child_time",
                 "work")

    def __init__(self, name: str, thread: int, parent: Optional["Span"],
                 work: float = 0.0) -> None:
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_time = 0.0
        self.work = work

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by direct child spans."""
        return self.duration - self.child_time


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, function: Callable, name: str,
               work: Optional[Callable[..., float]] = None) -> Callable:
        """``function`` wrapped to record a ``name`` span per call.
        ``work(*args, **kwargs)`` sizes the call (e.g. bytes computed)."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, threading.get_ident(),
                        stack[-1] if stack else None,
                        work(*args, **kwargs) if work is not None else 0.0)
            stack.append(span)
            span.start = time.monotonic()
            try:
                return function(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                tracer.spans.append(span)

        return wrapper

    @staticmethod
    def _current(owner: Any, attr: str) -> Any:
        # A class's own attribute, not one inherited from a base class.
        return (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))

    def _replace(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, self._current(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             work: Optional[Callable[..., float]] = None) -> None:
        """Trace ``owner.attr`` (a module function or a class's method)."""
        self._replace(owner, attr,
                      self.traced(self._current(owner, attr), name, work))

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Trace ``cls.attr`` and every override of it in a subclass."""
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            if attr in klass.__dict__:
                self.wrap(klass, attr, name)
            pending.extend(klass.__subclasses__())

    def wrap_argument(self, cls: type, keyword: str, name: str) -> None:
        """Trace the callable that ``cls(...)`` receives as ``keyword``
        (e.g. a quality function's batch evaluator)."""
        original_init = self._current(cls, "__init__")
        tracer = self

        @functools.wraps(original_init)
        def init(instance, *args, **kwargs):
            if kwargs.get(keyword) is not None:
                kwargs[keyword] = tracer.traced(kwargs[keyword], name)
            original_init(instance, *args, **kwargs)

        self._replace(cls, "__init__", init)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (``parent`` is a line index)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "thread": span.thread,
                    "start": span.start, "end": span.end,
                    "parent": (None if span.parent is None
                               else index.get(id(span.parent))),
                    "self_s": span.self_time, "work": span.work,
                }) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are named after."""
    from repro import kernels
    from repro.accounting.budget import BudgetedLedger
    from repro.neighbors.base import NeighborBackend, PlanFuture
    from repro.quasiconcave.quality import CallableQuality
    from repro.sample_aggregate import aggregators
    from repro.service.service import ClusteringService

    # ``repro.core`` re-exports functions under its submodules' names.
    one_cluster_module = importlib.import_module("repro.core.one_cluster")
    good_radius_module = importlib.import_module("repro.core.good_radius")
    tracer.wrap(ClusteringService, "submit", "service.submit")
    tracer.wrap(BudgetedLedger, "charge", "accounting.charge")
    tracer.wrap(one_cluster_module, "good_radius", "core.good_radius")
    tracer.wrap(one_cluster_module, "good_center", "core.good_center")
    tracer.wrap(good_radius_module, "rec_concave", "quasiconcave.rec_concave")
    tracer.wrap_argument(CallableQuality, "batch_function",
                         "quasiconcave.quality_batch")
    tracer.wrap_method(NeighborBackend, "capped_average_scores",
                       "neighbors.profile")
    tracer.wrap_method(NeighborBackend, "truncated_squared",
                       "neighbors.truncated")
    tracer.wrap_method(PlanFuture, "result", "neighbors.plan_wait")
    tracer.wrap(NeighborBackend, "record_speculation", "neighbors.speculation",
                work=lambda _backend, _stage, hit: float(bool(hit)))
    tracer.wrap(kernels, "squared_distance_slab", "kernels.slab",
                work=lambda queries, data, *_, **__:
                8.0 * len(queries) * len(data))
    tracer.wrap(kernels, "fused_box_labels", "kernels.box_label")
    tracer.wrap(kernels, "fixed_point_column_partials", "kernels.fixed_point")
    tracer.wrap(aggregators, "one_cluster", "sample_aggregate.aggregate")


def attribute(spans: Iterable[Span],
              intervals: Iterable[Tuple[Hashable, int, float, float]]
              ) -> Tuple[Dict[Hashable, List[Span]], List[Span]]:
    """Assign each span to the op whose interval on the span's thread
    contains it.

    ``intervals`` holds ``(op key, thread ident, start, end)``; an op may
    own intervals on several threads (a service op owns its client's
    submit-to-reply interval and its job's ``started_at``-``finished_at``
    interval on the executor thread).  Intervals on one thread must not
    overlap.  Returns the spans per op key and the spans no op contains.
    """
    by_thread: Dict[int, List[Tuple[float, float, Hashable]]] = defaultdict(list)
    for key, thread, start, end in intervals:
        by_thread[thread].append((start, end, key))
    starts = {}
    for thread, entries in by_thread.items():
        entries.sort(key=lambda entry: entry[0])
        starts[thread] = [entry[0] for entry in entries]
    owned: Dict[Hashable, List[Span]] = defaultdict(list)
    orphans: List[Span] = []
    for span in spans:
        entries = by_thread.get(span.thread)
        if entries:
            position = bisect.bisect_right(starts[span.thread], span.start) - 1
            if position >= 0:
                start, end, key = entries[position]
                if span.end <= end:
                    owned[key].append(span)
                    continue
        orphans.append(span)
    return dict(owned), orphans


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``time``, ``self`` time, ``work``."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "time": 0.0, "self": 0.0, "work": 0.0})
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["time"] += span.duration
        entry["self"] += span.self_time
        entry["work"] += span.work
    return dict(totals)
