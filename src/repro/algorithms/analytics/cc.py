"""Connected Components (CC).

Paper Section 2.1: "the CC program compares the IDs of adjacent vertices
and only updates a vertex if its ID is larger than the minimum value.
Vertices only receive data from neighbors that activate it."

Label-propagation formulation: every vertex starts with its own id as
its component label; each iteration an active vertex adopts the minimum
label among itself and its neighbors, and a vertex whose label shrank
signals exactly the neighbors that can still improve. The run ends when
the frontier drains.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("cc", domain="ga", abbrev="CC")
class ConnectedComponents(VertexProgram):
    """Minimum-label propagation over an undirected graph."""

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "min"
    gather_width = 1
    apply_flops_per_vertex = 2.0
    #: Signal-driven: runs under the asynchronous engine too.
    supports_async = True
    #: Monotone min-relaxation: also runs edge-centrically (X-Stream).
    supports_edge_centric = True
    #: Fused kernels: gather is min over neighbor labels. The scatter
    #: mask compares center vs neighbor labels, so it stays on the
    #: callback path (no "center" shape).
    gather_shape = "vertex"

    def __init__(self) -> None:
        self.component: np.ndarray | None = None
        self._changed: np.ndarray | None = None

    def init(self, ctx: Context) -> np.ndarray:
        n = ctx.n_vertices
        self.component = np.arange(n, dtype=np.float64)
        self._changed = np.zeros(n, dtype=bool)
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * 9  # component labels + changed flags

    def gather_edge(self, ctx, nbr, center, eid):
        return self.component[nbr]

    def gather_source(self, ctx):
        return self.component

    def apply(self, ctx, vids, acc):
        acc = acc.ravel()
        current = self.component[vids]
        improved = acc < current
        self.component[vids] = np.where(improved, acc, current)
        self._changed[vids] = improved

    def scatter_edges(self, ctx, center, nbr, eid):
        # Signal only neighbors that our (possibly new) label improves.
        return self._changed[center] & (self.component[center]
                                        < self.component[nbr])

    def on_iteration_end(self, ctx):
        self._changed[:] = False

    def result(self, ctx) -> dict:
        # A run degraded on poisoned state can hold NaN labels, which
        # have no integer value: summarise the finite ones.
        labels = self.component[np.isfinite(self.component)]
        _, sizes = np.unique(labels.astype(np.int64), return_counts=True)
        return {
            "n_components": int(sizes.size),
            "largest_component": int(sizes.max(initial=0)),
        }
