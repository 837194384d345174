"""Non-negative Matrix Factorization (NMF).

Paper Section 2.1: "NMF is used to factorize non-negative matrices";
Section 3.3 caps NMF at 20 iterations because it does not converge
on its own, and Section 4.3 reports all vertices active for the entire
lifecycle with behavior similar to SVD.

Lee-Seung multiplicative updates adapted to GAS: every iteration one
*side* of the bipartite graph refreshes its factors with

``f ← f ⊙ (Σ r·f_nbr) / (Σ (f·f_nbr)·f_nbr + ε)``

while the other side holds still; the sides alternate by iteration
parity but — matching the paper — every vertex stays in the frontier
throughout, and only the updating side sends messages (MSG = |E| per
iteration).
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram

_EPS = 1e-9


@registered("nmf", domain="cf", abbrev="NMF",
            default_params={"k": 4},
            default_options={"max_iterations": 20},
            always_active=True)
class NonNegativeMatrixFactorization(VertexProgram):
    """Alternating multiplicative updates (Lee-Seung)."""

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "sum"

    def __init__(self, k: int = 4) -> None:
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.k = k
        self.gather_width = 2 * k
        self.factors: np.ndarray | None = None
        self._is_user: np.ndarray | None = None

    def init(self, ctx: Context) -> np.ndarray:
        if ctx.graph.edge_weight is None:
            raise ValidationError("NMF requires a rating (weighted) graph")
        self._is_user = np.asarray(ctx.problem.require_input("is_user"),
                                   dtype=bool)
        n = ctx.n_vertices
        self.factors = np.abs(
            ctx.rng.normal(0.5, 0.15, size=(n, self.k))) + 0.05
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * self.k * 8

    def _updating_users(self, ctx: Context) -> bool:
        return ctx.iteration % 2 == 0

    def gather_edge(self, ctx, nbr, center, eid):
        f_nbr = self.factors[nbr]
        f_center = self.factors[center]
        rating = ctx.graph.edge_weight[eid]
        numerator = rating[:, None] * f_nbr
        denominator = (f_center * f_nbr).sum(axis=1)[:, None] * f_nbr
        return np.concatenate([numerator, denominator], axis=1)

    def apply(self, ctx, vids, acc):
        side = self._is_user[vids] == self._updating_users(ctx)
        movers = vids[side]
        if movers.size:
            num = acc[side, :self.k]
            den = acc[side, self.k:]
            self.factors[movers] *= num / (den + _EPS)
            ctx.add_work(float(movers.size) * self.k * 3.0)

    def scatter_edges(self, ctx, center, nbr, eid):
        # Only the side that moved this iteration propagates.
        return self._is_user[center] == self._updating_users(ctx)

    def select_next_frontier(self, ctx, signaled):
        return ctx.all_vertices()

    def result(self, ctx) -> dict:
        src, dst = ctx.graph.edge_endpoints()
        pred = (self.factors[src] * self.factors[dst]).sum(axis=1)
        err = pred - ctx.graph.edge_weight
        return {
            "rmse": float(np.sqrt((err ** 2).mean())) if err.size else 0.0,
            "min_factor": float(self.factors.min()),
        }
