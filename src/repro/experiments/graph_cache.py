"""Per-process graph materialization with a byte-bounded LRU cache.

:func:`materialize_problem` is the single resolution path between a
:class:`~repro.experiments.config.GraphSpec` and a live
:class:`~repro.generators.problem.ProblemInstance`:

1. the shared-memory graph plane (:mod:`repro.graph.shm`) — zero-copy
   attach of a graph the corpus builder published;
2. this process's :class:`GraphCache` — inline builds and repeated
   :func:`~repro.behavior.run.run_computation` calls reuse graphs they
   already generated;
3. ``spec.generate()`` — the slow path, inserted into the cache.

Each caller wraps a resolution in a ``materialize`` span whose event
carries the ``source`` (``shm``, ``cache`` or ``generated``); ``repro
stats`` counts graph resolutions from those events.

Resolved problems are shared across runs, so their domain inputs are
frozen read-only — algorithms only ever read inputs, and the graph's
CSR arrays are immutable already.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.generators.problem import ProblemInstance
from repro.graph import shm

#: Capacity of the process-wide cache — generous for smoke/paper
#: profiles, bounded so a long-lived process cannot accumulate every
#: graph it ever touched.
DEFAULT_CACHE_BYTES = 256 << 20


def problem_nbytes(problem: ProblemInstance) -> int:
    """Approximate resident size: CSR arrays plus array inputs."""
    total = problem.graph.memory_bytes()
    for value in problem.inputs.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


class GraphCache:
    """Byte-bounded LRU over materialized problems, keyed by spec key.

    A capacity of ``0`` disables caching entirely (every miss is a
    regenerate); problems larger than the whole capacity are never
    admitted.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.capacity_bytes = max(0, int(capacity_bytes))
        self._entries: "OrderedDict[str, tuple[ProblemInstance, int]]" = \
            OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> "ProblemInstance | None":
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: str, problem: ProblemInstance) -> None:
        size = problem_nbytes(problem)
        if size > self.capacity_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.used_bytes -= old[1]
        self._entries[key] = (problem, size)
        self.used_bytes += size
        while self.used_bytes > self.capacity_bytes and self._entries:
            _, (_, evicted_size) = self._entries.popitem(last=False)
            self.used_bytes -= evicted_size

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0


_default_cache: "GraphCache | None" = None


def default_cache() -> GraphCache:
    """The process-wide cache, of :data:`DEFAULT_CACHE_BYTES`."""
    global _default_cache
    if _default_cache is None:
        _default_cache = GraphCache()
    return _default_cache


def freeze_inputs(problem: ProblemInstance) -> ProblemInstance:
    """Mark array inputs read-only so the problem is safely shareable."""
    for value in problem.inputs.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return problem


def materialize_problem(spec) -> tuple[ProblemInstance, str]:
    """Resolve a spec to a problem; returns ``(problem, source)``.

    ``source`` is ``"shm"`` (graph plane), ``"cache"`` (this process's
    LRU) or ``"generated"`` (actually materialized here and now).
    """
    key = spec.cache_key()
    problem = shm.resolve(key)
    if problem is not None:
        source = "shm"
    else:
        cache = default_cache()
        problem = cache.get(key)
        if problem is not None:
            source = "cache"
        else:
            problem = freeze_inputs(spec.generate())
            cache.put(key, problem)
            source = "generated"
    return problem, source
