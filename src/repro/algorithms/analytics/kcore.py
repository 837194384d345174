"""K-Core decomposition (KC).

Paper Section 2.1: "To find all K-Cores of the input graph, the KC
program recursively removes all vertices with degree d = 0, 1, 2, ...
Vertices only receive data from neighbors that activate it."

Peeling formulation: phase ``k`` repeatedly removes alive vertices whose
*effective degree* (alive neighbors) is below ``k``; each removal
signals the removed vertex's alive neighbors, which re-check their
degree. When a phase produces no signals, ``k`` advances and every
alive vertex re-activates. A vertex removed during phase ``k`` has core
number ``k - 1``. The run ends when every vertex has been peeled.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("kcore", domain="ga", abbrev="KC")
class KCoreDecomposition(VertexProgram):
    """Iterative peeling with explicit phases over ``k``."""

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "sum"
    gather_width = 1
    apply_flops_per_vertex = 2.0
    #: Fused kernels: effective degree is a sum of 0/1 alive flags over
    #: neighbors. Scatter compares center *and* neighbor state, so it
    #: stays on the callback path.
    gather_shape = "vertex"

    def __init__(self) -> None:
        self.alive: np.ndarray | None = None
        self.core: np.ndarray | None = None
        self.k: int = 1
        self._removed_now: np.ndarray | None = None

    def init(self, ctx: Context) -> np.ndarray:
        n = ctx.n_vertices
        self.alive = np.ones(n, dtype=bool)
        self.core = np.zeros(n, dtype=np.int64)
        self.k = 1
        self._removed_now = np.zeros(n, dtype=bool)
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * 11

    def gather_edge(self, ctx, nbr, center, eid):
        # Effective degree: count alive neighbors. Recomputing (rather
        # than decrementing) keeps the phase restarts idempotent.
        return self.alive[nbr].astype(np.float64)

    def gather_source(self, ctx):
        return self.alive.astype(np.float64)

    def apply(self, ctx, vids, acc):
        eff_deg = acc.ravel()
        removable = self.alive[vids] & (eff_deg < self.k)
        removed_vids = vids[removable]
        self.alive[removed_vids] = False
        self.core[removed_vids] = self.k - 1
        self._removed_now[removed_vids] = True

    def scatter_edges(self, ctx, center, nbr, eid):
        # A removal notifies alive neighbors, whose degree just dropped.
        return self._removed_now[center] & self.alive[nbr]

    def select_next_frontier(self, ctx, signaled):
        if signaled.size:
            signaled = signaled[self.alive[signaled]]
        if signaled.size == 0 and self.alive.any():
            # Phase k produced no cascade: advance k, wake every
            # survivor to test against the new threshold.
            self.k += 1
            return np.flatnonzero(self.alive)
        return signaled

    def on_iteration_end(self, ctx):
        self._removed_now[:] = False

    def result(self, ctx) -> dict:
        return {
            "max_core": int(self.core.max()) if self.core.size else 0,
            "final_k": int(self.k),
        }
