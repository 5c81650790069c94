"""Quality-function interface for quasi-concave promise problems.

A quasi-concave promise problem (paper Definition 4.2) consists of a totally
ordered finite solution set ``F`` (here always represented as indices
``0 .. size-1``), a sensitivity-1 quality function ``Q(S, f)``, an
approximation parameter ``alpha`` and a quality promise ``p``.  The solver
only interacts with the database through ``Q``, so the interface below is all
it needs: evaluate the quality of one index, or of a batch of indices (the
batch form lets numpy-backed qualities such as GoodRadius's ``L``-based score
amortise their per-call cost).
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

import numpy as np


class QualityFunction:
    """Abstract sensitivity-1 quality function over indices ``0 .. size-1``."""

    @property
    def size(self) -> int:
        """The number of candidate solutions ``|F|``."""
        raise NotImplementedError

    def value(self, index: int) -> float:
        """Quality of a single candidate."""
        raise NotImplementedError

    def values(self, indices: Sequence[int]) -> np.ndarray:
        """Qualities of a batch of candidates (default: loop over
        :meth:`value`; override for vectorised evaluation)."""
        return np.array([self.value(int(index)) for index in indices], dtype=float)

    def prefetch(self, indices: Sequence[int]) -> None:
        """Hint that the given indices will be evaluated soon.

        Purely a performance hook: implementations may start computing the
        qualities asynchronously (``PlanQuality`` submits one backend
        :class:`~repro.neighbors.QueryPlan` and overlaps the round trip with
        the caller's other work), but the values eventually returned by
        :meth:`value` / :meth:`values` are exactly what eager evaluation
        would produce.  The default does nothing.
        """


class ArrayQuality(QualityFunction):
    """Quality function backed by a precomputed array of scores."""

    def __init__(self, scores) -> None:
        scores = np.asarray(scores, dtype=float).reshape(-1)
        if scores.size == 0:
            raise ValueError("scores must be non-empty")
        self._scores = scores

    @property
    def size(self) -> int:
        return int(self._scores.size)

    def value(self, index: int) -> float:
        return float(self._scores[index])

    def values(self, indices: Sequence[int]) -> np.ndarray:
        return self._scores[np.asarray(indices, dtype=np.int64)]


class _MemoisedQuality(QualityFunction):
    """The memo :class:`CallableQuality` and :class:`PlanQuality` share.

    One float slot and one "known" flag per candidate index, so the
    solvers' repeated batch lookups (RecConcave reads every interval
    endpoint at every dyadic length) are array gathers, not per-index
    dictionary probes.  Every batch entry point rejects indices outside
    ``[0, size)``.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"size must be at least 1, got {size}")
        self._size = int(size)
        self._memo = np.zeros(self._size, dtype=float)
        self._known = np.zeros(self._size, dtype=bool)

    @property
    def size(self) -> int:
        return self._size

    @property
    def evaluations(self) -> int:
        """How many distinct indices have been evaluated (for efficiency
        tests)."""
        return int(np.count_nonzero(self._known))

    def _check_indices(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if indices.size and (int(indices.min()) < 0
                             or int(indices.max()) >= self._size):
            raise IndexError(f"indices must lie in [0, {self._size})")
        return indices

    def _missing(self, indices: np.ndarray) -> np.ndarray:
        """The ascending unique checked ``indices`` not yet memoised."""
        return np.unique(indices[~self._known[indices]])

    def _store(self, indices: np.ndarray, values) -> None:
        self._memo[indices] = values
        self._known[indices] = True


class CallableQuality(_MemoisedQuality):
    """Quality function backed by a callable, with memoisation.

    Parameters
    ----------
    function:
        Callable mapping an index to a quality value.
    size:
        The number of candidates.
    batch_function:
        Optional callable mapping an ascending integer array of indices to
        an array of qualities; used when available to avoid Python-level
        loops.
    """

    def __init__(self, function: Callable[[int], float], size: int,
                 batch_function: Callable[[np.ndarray], np.ndarray] = None) -> None:
        super().__init__(size)
        self._function = function
        self._batch_function = batch_function

    def value(self, index: int) -> float:
        index = int(index)
        if not (0 <= index < self._size):
            raise IndexError(f"index {index} out of range [0, {self._size})")
        if not self._known[index]:
            self._store(index, float(self._function(index)))
        return float(self._memo[index])

    def values(self, indices: Sequence[int]) -> np.ndarray:
        indices = self._check_indices(indices)
        missing = self._missing(indices)
        if missing.size:
            if self._batch_function is not None:
                computed = np.asarray(self._batch_function(missing),
                                      dtype=float)
            else:
                computed = [float(self._function(int(key)))
                            for key in missing]
            self._store(missing, computed)
        return self._memo[indices]

    def prefetch(self, indices: Sequence[int]) -> None:
        """Warm the memoisation cache (synchronously) for a batch of
        indices; later :meth:`value` / :meth:`values` calls on them are
        cache hits."""
        self.values(indices)


class PlanQuality(_MemoisedQuality):
    """Quality function evaluated through backend :class:`QueryPlan`\\ s.

    The bridge between the quasi-concave solvers and the
    :class:`~repro.neighbors.NeighborBackend` layer: a batch of candidate
    indices compiles into one query plan, and :meth:`prefetch` *submits*
    that plan asynchronously — on a sharded/distributed backend the whole
    batch is one round trip per shard, in flight while the caller keeps
    working — with :meth:`values` resolving the future on first use.
    Resolution order is submission order and every plan merge is
    shard-order deterministic, so the returned qualities are bitwise what
    eager per-index evaluation would produce; the solver's noise draws
    never depend on how the evaluations were transported.

    Parameters
    ----------
    backend:
        The :class:`~repro.neighbors.NeighborBackend` the plans run on.
    size:
        The number of candidate solutions ``|F|``.
    compile_batch:
        ``compile_batch(plan, indices)``: appends the queries answering the
        given ascending unique index batch to ``plan`` and returns a token
        (typically the result slot) handed back to ``resolve_batch``.
    resolve_batch:
        ``resolve_batch(results, token, indices)``: maps the executed
        plan's result list to the ``(len(indices),)`` float qualities of
        the batch, in batch order.
    """

    def __init__(self, backend, size: int,
                 compile_batch: Callable[..., Any],
                 resolve_batch: Callable[..., np.ndarray]) -> None:
        super().__init__(size)
        self._backend = backend
        self._compile_batch = compile_batch
        self._resolve_batch = resolve_batch
        self._pending: List[Tuple[Any, Any, np.ndarray]] = []
        self._in_flight = np.zeros(self._size, dtype=bool)

    @property
    def backend(self):
        """The backend the quality's plans run on."""
        return self._backend

    def prefetch(self, indices: Sequence[int]) -> None:
        missing = self._missing(self._check_indices(indices))
        missing = missing[~self._in_flight[missing]]
        if missing.size == 0:
            return
        from repro.neighbors import QueryPlan

        plan = QueryPlan()
        token = self._compile_batch(plan, missing)
        future = self._backend.submit(plan)
        self._pending.append((future, token, missing))
        self._in_flight[missing] = True

    def _drain(self) -> None:
        """Resolve every in-flight plan, in submission order."""
        pending, self._pending = self._pending, []
        for future, token, batch in pending:
            scores = np.asarray(
                self._resolve_batch(future.result(), token, batch),
                dtype=float,
            ).reshape(-1)
            if scores.shape[0] != batch.shape[0]:
                raise ValueError(
                    f"resolve_batch returned {scores.shape[0]} qualities "
                    f"for a batch of {batch.shape[0]} indices"
                )
            self._store(batch, scores)
            self._in_flight[batch] = False

    def value(self, index: int) -> float:
        return float(self.values([index])[0])

    def values(self, indices: Sequence[int]) -> np.ndarray:
        indices = self._check_indices(indices)
        if not self._known[indices].all():
            self.prefetch(indices)
            self._drain()
        return self._memo[indices]


def is_quasi_concave(scores, tolerance: float = 1e-9) -> bool:
    """Check whether a score array is quasi-concave.

    ``Q`` is quasi-concave iff for every ``i <= l <= j``,
    ``Q(l) >= min(Q(i), Q(j))`` — equivalently, the sequence never dips below
    a level it later exceeds again.  Used by tests and by debug assertions in
    the solvers.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.size <= 2:
        return True
    # Quasi-concave iff scores first (weakly) rise to a peak then (weakly)
    # fall, up to tolerance: running max from the left and running max from
    # the right must cover every value.
    prefix_max = np.maximum.accumulate(scores)
    suffix_max = np.maximum.accumulate(scores[::-1])[::-1]
    lower_envelope = np.minimum(prefix_max, suffix_max)
    return bool(np.all(scores >= lower_envelope - tolerance))


__all__ = [
    "QualityFunction",
    "ArrayQuality",
    "CallableQuality",
    "PlanQuality",
    "is_quasi_concave",
]
