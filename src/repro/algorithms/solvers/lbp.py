"""Loopy Belief Propagation (LBP) for pixel-lattice denoising.

Paper Section 2.1: "Loopy Belief Propagation is a discrete structured
prediction application"; Section 4.4: "LBP exhibits a sharp drop in the
number of active vertices over time" and "graph size has no effect on
the shape of active fraction" (Figure 11).

Max-sum BP in the log domain with a Potts agreement bonus: each vertex
(pixel) holds a belief over ``n_states`` labels; incoming messages live
on edges (one slot per direction). Gather sums incoming log-messages,
Apply refreshes the belief, and Scatter recomputes the outgoing message
on each edge of a vertex whose belief moved, signaling the neighbor
only if the message residual exceeds the tolerance — which is what
drains the frontier from the smooth interior outward.

Messages are double-buffered (read ``cur``, write ``next``, swap at
iteration end) so the synchronous trace does not depend on the order
in which an engine visits the frontier's vertices.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("lbp", domain="grid", abbrev="LBP",
            default_params={"smoothness": 1.0, "tol": 1e-3},
            default_options={"max_iterations": 200})
class LoopyBeliefPropagation(VertexProgram):
    """Synchronous max-sum BP with Potts potentials.

    Parameters
    ----------
    smoothness:
        Potts agreement bonus λ (log-domain) between neighboring pixels.
    tol:
        Belief/message residual below which a vertex stops propagating.
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "sum"

    def __init__(self, smoothness: float = 1.0, tol: float = 1e-3) -> None:
        if tol <= 0:
            raise ValidationError("tol must be positive")
        self.smoothness = smoothness
        self.tol = tol
        self.belief: np.ndarray | None = None
        self._prior_log: np.ndarray | None = None
        self._msg_cur: np.ndarray | None = None
        self._msg_next: np.ndarray | None = None
        self._changed: np.ndarray | None = None
        self._staged_iter: int = -1
        self.n_states: int = 0

    def init(self, ctx: Context) -> np.ndarray:
        priors = np.asarray(ctx.problem.require_input("priors"),
                            dtype=np.float64)
        if priors.ndim != 2 or priors.shape[0] != ctx.n_vertices:
            raise ValidationError("priors must be (n_vertices, n_states)")
        self.n_states = priors.shape[1]
        self.gather_width = self.n_states
        self._prior_log = np.log(np.clip(priors, 1e-12, None))
        self.belief = self._prior_log.copy()
        m = ctx.n_edges
        self._msg_cur = np.zeros((m, 2, self.n_states))
        self._msg_next = self._msg_cur
        self._changed = np.zeros(ctx.n_vertices, dtype=bool)
        self._staged_iter = -1
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        s = max(self.n_states, 4)
        return ctx.n_vertices * s * 16 + ctx.n_edges * 2 * s * 16

    @staticmethod
    def _incoming_dir(nbr: np.ndarray, center: np.ndarray) -> np.ndarray:
        # Direction slot 0 carries lo→hi, slot 1 carries hi→lo.
        return np.where(nbr < center, 0, 1)

    def gather_edge(self, ctx, nbr, center, eid):
        return self._msg_cur[eid, self._incoming_dir(nbr, center), :]

    def apply(self, ctx, vids, acc):
        new_belief = self._prior_log[vids] + acc
        delta = np.abs(new_belief - self.belief[vids]).max(axis=1)
        self.belief[vids] = new_belief
        # Everyone propagates once at startup so messages exist at all.
        self._changed[vids] = (delta > self.tol) | (ctx.iteration == 0)
        ctx.add_work(float(vids.size) * self.n_states)

    def _stage(self, ctx: Context) -> None:
        if self._staged_iter != ctx.iteration:
            self._msg_next = self._msg_cur.copy()
            self._staged_iter = ctx.iteration

    def scatter_edges(self, ctx, center, nbr, eid):
        self._stage(ctx)
        active = self._changed[center]
        if not active.any():
            return np.zeros(center.size, dtype=bool)
        c, nb, e = center[active], nbr[active], eid[active]
        # Remove the recipient's own contribution from the belief, then
        # push through the Potts potential.
        inc = self._msg_cur[e, self._incoming_dir(nb, c), :]
        tmp = self.belief[c] - inc
        new_msg = np.maximum(tmp.max(axis=1, keepdims=True),
                             tmp + self.smoothness)
        new_msg -= new_msg.max(axis=1, keepdims=True)
        out_dir = self._incoming_dir(c, nb)  # direction c → nb
        residual = np.abs(new_msg - self._msg_cur[e, out_dir, :]).max(axis=1)
        send = residual > self.tol
        self._msg_next[e[send], out_dir[send], :] = new_msg[send]
        mask = np.zeros(center.size, dtype=bool)
        mask[np.flatnonzero(active)[send]] = True
        return mask

    def on_iteration_end(self, ctx):
        if self._staged_iter == ctx.iteration:
            self._msg_cur = self._msg_next
        self._changed[:] = False

    def labels(self) -> np.ndarray:
        """MAP label per pixel under the current beliefs."""
        return np.argmax(self.belief, axis=1)

    def result(self, ctx) -> dict:
        out = {"n_states": self.n_states}
        if "truth" in ctx.problem.inputs:
            truth = np.asarray(ctx.problem.inputs["truth"])
            out["accuracy"] = float((self.labels() == truth).mean())
        return out
