"""Jacobi iterative linear solver.

Paper Section 2.1: "Jacobi method is an iterative method to solve a
diagonally dominant system of linear equations"; Section 4.4: all
vertices stay active every iteration, and all metrics except EREAD
depend on problem scale.

Vertex ``i`` holds ``x_i``; edge ``j → i`` carries ``A_ij``. One
iteration is the textbook sweep ``x_i ← (b_i − Σ_{j≠i} A_ij x_j) / A_ii``
with the off-diagonal sum gathered over in-edges. Convergence is a
global ∞-norm test on the update.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("jacobi", domain="matrix", abbrev="Jacobi",
            default_params={"tol": 1e-8}, always_active=True)
class JacobiSolver(VertexProgram):
    """Synchronous Jacobi sweeps on a diagonally dominant system.

    Parameters
    ----------
    tol:
        ∞-norm threshold on ``x_{t+1} − x_t`` for convergence.
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "sum"
    gather_width = 1
    apply_flops_per_vertex = 3.0
    #: Fused kernels: the off-diagonal row sum is Σ A_ij·x_j and every
    #: vertex always rebroadcasts (an unconditional "center" scatter).
    gather_shape = "vertex_times_edge"
    scatter_shape = "center"

    def __init__(self, tol: float = 1e-8) -> None:
        if tol <= 0:
            raise ValidationError("tol must be positive")
        self.tol = tol
        self.x: np.ndarray | None = None
        self._b: np.ndarray | None = None
        self._diag: np.ndarray | None = None
        self._max_delta: float = np.inf

    def init(self, ctx: Context) -> np.ndarray:
        if ctx.graph.edge_weight is None:
            raise ValidationError(
                "Jacobi requires edge weights (matrix entries)")
        self._b = np.asarray(ctx.problem.require_input("b"), dtype=np.float64)
        self._diag = np.asarray(ctx.problem.require_input("diag"),
                                dtype=np.float64)
        if np.any(self._diag == 0):
            raise ValidationError("matrix diagonal contains zeros")
        self.x = np.zeros(ctx.n_vertices)
        self._max_delta = np.inf
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * 8

    def gather_edge(self, ctx, nbr, center, eid):
        return ctx.graph.edge_weight[eid] * self.x[nbr]

    def gather_source(self, ctx):
        return self.x

    def apply(self, ctx, vids, acc):
        new_x = (self._b[vids] - acc.ravel()) / self._diag[vids]
        delta = float(np.abs(new_x - self.x[vids]).max()) if vids.size else 0.0
        # Track the global max update across (possibly per-vertex) calls.
        if ctx.iteration != getattr(self, "_delta_iter", -1):
            self._max_delta = 0.0
            self._delta_iter = ctx.iteration
        self._max_delta = max(self._max_delta, delta)
        self.x[vids] = new_x

    def scatter_edges(self, ctx, center, nbr, eid):
        # Everyone rebroadcasts its new x along the matrix structure.
        return np.ones(center.size, dtype=bool)

    def scatter_vertex_mask(self, ctx, vids):
        return np.ones(vids.size, dtype=bool)

    def select_next_frontier(self, ctx, signaled):
        return ctx.all_vertices()

    def converged(self, ctx) -> bool:
        return self._max_delta < self.tol

    def result(self, ctx) -> dict:
        out = {"max_delta": float(self._max_delta)}
        if "x_true" in ctx.problem.inputs:
            err = self.x - np.asarray(ctx.problem.inputs["x_true"])
            out["solution_error"] = float(np.abs(err).max())
        return out
