"""Triangle Counting (TC).

Paper Section 2.1: "For each edge in the graph, the TC program counts
the number of intersections of the neighbor sets on both endpoints."

Three-superstep GAS schedule (mirroring PowerGraph's TC):

1. **collect** — every vertex reads its neighbors' adjacency through
   each edge (EREAD = 2·|E|) and signals them, so everyone enters the
   counting step.
2. **count** — every vertex computes, per incident edge, the size of
   the neighbor-set intersection with the other endpoint; its triangle
   count is half the sum (each triangle is seen through two of its
   edges at each vertex). Vertices signal only the neighbors whose
   shared edge carries at least one triangle.
3. **finalize** — only triangle-participating vertices are active; they
   read neighbor counts to fold into the global total and go quiet.

The step-2 intersection work (``Σ min-degree`` over edges) is reported
through the unit work ledger, which is what makes TC's WORK, UPDT, and
MSG fall as the degree distribution becomes more uniform (paper Fig 3)
while per-edge EREAD stays constant.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.analytics._intersect import (
    common_neighbor_counts,
    sorted_edge_keys,
)
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("triangle", domain="ga", abbrev="TC")
class TriangleCounting(VertexProgram):
    """Per-edge neighbor-set intersection counting."""

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "sum"
    gather_width = 1
    apply_flops_per_vertex = 1.0

    _COLLECT, _COUNT, _FINALIZE = 0, 1, 2

    def __init__(self) -> None:
        self.counts: np.ndarray | None = None
        self._edge_keys: np.ndarray | None = None
        self._edge_has_triangle: np.ndarray | None = None
        self._pending_work: float = 0.0
        self._total: float = 0.0

    def init(self, ctx: Context) -> np.ndarray:
        graph = ctx.graph
        self.counts = np.zeros(ctx.n_vertices)
        self._edge_keys = sorted_edge_keys(graph)
        self._edge_has_triangle = np.zeros(graph.n_edges, dtype=bool)
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * 8 + ctx.n_edges * 9

    def _phase(self, ctx: Context) -> int:
        return min(ctx.iteration, self._FINALIZE)

    def gather_edge(self, ctx, nbr, center, eid):
        phase = self._phase(ctx)
        if phase == self._COLLECT:
            # Reading the neighbor's adjacency list; no numeric payload.
            return np.zeros(nbr.size)
        if phase == self._COUNT:
            per_edge, expansion = common_neighbor_counts(
                ctx.graph, center, nbr, self._edge_keys)
            self._pending_work += expansion
            self._edge_has_triangle[eid[per_edge > 0]] = True
            return per_edge
        # FINALIZE: read neighbor counts to fold into the global total.
        return self.counts[nbr]

    def apply(self, ctx, vids, acc):
        phase = self._phase(ctx)
        if phase == self._COUNT:
            # Each triangle at v is seen through two of its edges.
            self.counts[vids] = acc.ravel() / 2.0
            ctx.add_work(self._pending_work)
            self._pending_work = 0.0
        elif phase == self._FINALIZE:
            self._total += float(self.counts[vids].sum())

    def scatter_edges(self, ctx, center, nbr, eid):
        phase = self._phase(ctx)
        if phase == self._COLLECT:
            return np.ones(center.size, dtype=bool)
        if phase == self._COUNT:
            return self._edge_has_triangle[eid]
        return np.zeros(center.size, dtype=bool)

    def result(self, ctx) -> dict:
        return {
            "total_triangles": float(self.counts.sum() / 3.0),
            "max_per_vertex": (float(self.counts.max())
                               if self.counts.size else 0.0),
        }
