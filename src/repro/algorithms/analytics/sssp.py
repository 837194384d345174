"""Single-Source Shortest Path (SSSP).

Paper Section 2.1: "The source vertex is active initially. In each
iteration, an active vertex computes and updates distances for adjacent
vertices." — Bellman-Ford-style relaxation under GAS: the frontier
starts as just the source and the active fraction grows rapidly
(Section 1) before draining as distances settle.

The paper's GA inputs are unweighted graphs; if the graph carries edge
weights they are used, otherwise unit weights (BFS distances).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("sssp", domain="ga", abbrev="SSSP",
            default_params={"source": None})
class SingleSourceShortestPath(VertexProgram):
    """Frontier-based distance relaxation.

    Parameters
    ----------
    source:
        Source vertex id; ``None`` picks the highest-degree vertex
        (deterministic, and never an isolated vertex on the synthetic
        graphs).
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "min"
    gather_width = 1
    apply_flops_per_vertex = 2.0
    #: Signal-driven: runs under the asynchronous engine too.
    supports_async = True
    #: Monotone min-relaxation: also runs edge-centrically (X-Stream).
    supports_edge_centric = True

    def signal_priority(self, ctx, v: int) -> float:
        """Priority scheduling relaxes near vertices first (approaches
        Dijkstra ordering under the async priority scheduler)."""
        d = self.dist[v]
        return -float(d) if np.isfinite(d) else 0.0

    def __init__(self, source: int | None = None) -> None:
        self.source = source
        self.dist: np.ndarray | None = None
        self._changed: np.ndarray | None = None
        self._weights: np.ndarray | None = None

    def init(self, ctx: Context) -> np.ndarray:
        graph = ctx.graph
        n = graph.n_vertices
        if self.source is None:
            self.source = int(np.argmax(graph.degree))
        if not 0 <= self.source < n:
            raise ValueError(f"source {self.source} out of range [0, {n})")
        self.dist = np.full(n, np.inf)
        self.dist[self.source] = 0.0
        self._changed = np.zeros(n, dtype=bool)
        if graph.edge_weight is not None:
            self._weights = graph.edge_weight
            # dist[u] + w[e], per edge.
            self.gather_shape = "vertex_plus_edge"
        else:
            self._weights = None  # unit weights
            # (dist + 1.0)[u] == dist[u] + 1.0 bit for bit.
            self.gather_shape = "vertex"
        return np.asarray([self.source], dtype=np.int64)

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * 9

    def _w(self, eid: np.ndarray) -> np.ndarray | float:
        return 1.0 if self._weights is None else self._weights[eid]

    def gather_edge(self, ctx, nbr, center, eid):
        return self.dist[nbr] + self._w(eid)

    def gather_source(self, ctx):
        # Weighted: the kernel adds the per-slot weight; unweighted:
        # fold the unit hop into the source (bit-identical either way).
        return self.dist if self._weights is not None else self.dist + 1.0

    def apply(self, ctx, vids, acc):
        acc = acc.ravel()
        current = self.dist[vids]
        improved = acc < current
        self.dist[vids] = np.where(improved, acc, current)
        # The source's first apply sees no improvement but must still
        # scatter to seed the frontier.
        if ctx.iteration == 0:
            seed = vids == self.source
            improved = improved | seed
        self._changed[vids] = improved

    def scatter_edges(self, ctx, center, nbr, eid):
        return self._changed[center] & (self.dist[center] + self._w(eid)
                                        < self.dist[nbr])

    def on_iteration_end(self, ctx):
        self._changed[:] = False

    def result(self, ctx) -> dict:
        finite = np.isfinite(self.dist)
        return {
            "source": int(self.source),
            "reached": int(finite.sum()),
            "max_dist": (float(self.dist[finite].max())
                         if finite.any() else 0.0),
        }
