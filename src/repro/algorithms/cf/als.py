"""Alternating Least Squares (ALS) matrix factorization.

Paper Section 2.1: ALS learns user- and item-factor vectors by
alternately solving regularized least-squares problems; Section 4.3
singles it out: "ALS behavior strongly depends on graph size and degree
distribution ... ALS converges much more slowly over larger graphs" and
its active fraction varies per graph — the only CF algorithm without a
constant 1.0 active fraction.

GAS formulation (GraphLab's ALS): an active vertex gathers, over its
rating edges, the Gram-matrix and right-hand-side contributions
``f_nbr f_nbrᵀ`` and ``r · f_nbr``, then solves the ``k×k`` normal
equations ``(Σ f f ᵀ + λ·deg·I) x = Σ r f``. A vertex whose factor moved
more than ``tol`` signals its neighbors (the opposite side), so the two
sides alternate *through activation*, and per-vertex convergence drains
the frontier — producing the graph-dependent active-fraction trends of
Figure 7.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("als", domain="cf", abbrev="ALS",
            default_params={"k": 4, "reg": 0.08, "tol": 0.02},
            default_options={"max_iterations": 200})
class AlternatingLeastSquares(VertexProgram):
    """Regularized ALS with activation-driven alternation.

    Parameters
    ----------
    k:
        Factor dimension.
    reg:
        Tikhonov regularization weight λ (scaled by vertex degree).
    tol:
        Per-vertex factor-change (∞-norm) threshold below which a vertex
        stops signaling.
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "sum"

    def __init__(self, k: int = 4, reg: float = 0.08,
                 tol: float = 0.02) -> None:
        if k < 1:
            raise ValidationError("k must be >= 1")
        if reg < 0:
            raise ValidationError("reg must be non-negative")
        self.k = k
        self.gather_width = k * k + k
        self.reg = reg
        self.tol = tol
        self.factors: np.ndarray | None = None
        self._delta: np.ndarray | None = None
        self._is_user: np.ndarray | None = None

    def init(self, ctx: Context) -> np.ndarray:
        n = ctx.n_vertices
        if ctx.graph.edge_weight is None:
            raise ValidationError("ALS requires a rating (weighted) graph")
        self._is_user = np.asarray(ctx.problem.require_input("is_user"),
                                   dtype=bool)
        self.factors = ctx.rng.normal(0.0, 0.1, size=(n, self.k)) + 0.2
        self._delta = np.zeros(n)
        # Users move first; items respond to their signals.
        return np.flatnonzero(self._is_user)

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * (self.k + 1) * 8

    def gather_edge(self, ctx, nbr, center, eid):
        f = self.factors[nbr]
        rating = ctx.graph.edge_weight[eid]
        gram = f[:, :, None] * f[:, None, :]
        return np.concatenate(
            [gram.reshape(nbr.size, self.k * self.k),
             rating[:, None] * f],
            axis=1,
        )

    def apply(self, ctx, vids, acc):
        k = self.k
        gram = acc[:, :k * k].reshape(vids.size, k, k)
        rhs = acc[:, k * k:]
        deg = ctx.graph.degree[vids].astype(np.float64)
        ridge = self.reg * np.maximum(deg, 1.0)
        lhs = gram + ridge[:, None, None] * np.eye(k)[None, :, :]
        new = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
        self._delta[vids] = np.abs(new - self.factors[vids]).max(axis=1)
        self.factors[vids] = new
        ctx.add_work(float(vids.size) * k ** 3)

    def scatter_edges(self, ctx, center, nbr, eid):
        return self._delta[center] > self.tol

    def result(self, ctx) -> dict:
        src, dst = ctx.graph.edge_endpoints()
        pred = (self.factors[src] * self.factors[dst]).sum(axis=1)
        err = pred - ctx.graph.edge_weight
        return {
            "rmse": float(np.sqrt((err ** 2).mean())) if err.size else 0.0,
            "k": self.k,
        }
