"""K-Means clustering (KM) over a graph of data points.

Paper Sections 2.1/3.2: vertices are 2-D data points, edges are
pairwise rewards between points; KM partitions the points into ``k``
clusters by nearest mean. "All vertices remain active through the whole
lifecycle. In scatter, each vertex sends messages to neighbors when the
cluster assignment has changed."

Graph-regularized Lloyd iteration: a vertex's cluster objective is its
squared distance to each center minus a reward for agreeing with its
neighbors (the per-edge pairwise reward), so assignment both tracks the
centers and smooths over the graph — that is what couples KM's behavior
to the degree distribution (Figure 6). Centers are global aggregates
recomputed at the end of every iteration.

KM is the paper's slowest-converging Clustering workload (>700
iterations at cluster scale); at library scale the run is capped by the
engine's ``max_iterations`` (profile default) and typically converges
earlier.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.algorithms.registry import registered
from repro.engine.context import Context
from repro.engine.program import Direction, VertexProgram


@registered("kmeans", domain="clustering", abbrev="KM",
            default_params={"k": 4, "reward": 0.05, "center_tol": 1e-6},
            default_options={"max_iterations": 200},
            always_active=True)
class KMeansClustering(VertexProgram):
    """Lloyd's algorithm with neighbor-vote regularization.

    Parameters
    ----------
    k:
        Number of clusters.
    reward:
        Pairwise reward per neighbor voting for a cluster (0 recovers
        plain Lloyd).
    center_tol:
        Convergence threshold on the max center displacement.
    """

    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "sum"
    #: Neighbor votes are a per-label count of the neighbors' clusters
    #: (``gather_source`` is the assignment): one ``bincount`` on the
    #: fused path, exact in any order (DESIGN §13).
    gather_shape = "count"

    def __init__(self, k: int = 4, reward: float = 0.05,
                 center_tol: float = 1e-6) -> None:
        if k < 1:
            raise ValidationError("k must be >= 1")
        if reward < 0:
            raise ValidationError("reward must be non-negative")
        self.k = k
        self.gather_width = k
        self.reward = reward
        self.center_tol = center_tol
        self.points: np.ndarray | None = None
        self.assignment: np.ndarray | None = None
        self.centers: np.ndarray | None = None
        self._changed: np.ndarray | None = None
        self._stable: bool = False

    def init(self, ctx: Context) -> np.ndarray:
        self.points = np.asarray(ctx.problem.require_input("points"),
                                 dtype=np.float64)
        n = ctx.n_vertices
        if self.points.shape[0] != n:
            raise ValidationError("points must have one row per vertex")
        pick = ctx.rng.choice(n, size=min(self.k, n), replace=False)
        self.centers = self.points[pick].copy()
        if self.centers.shape[0] < self.k:  # degenerate tiny graphs
            pad = np.zeros((self.k - self.centers.shape[0],
                            self.points.shape[1]))
            self.centers = np.vstack([self.centers, pad])
        self.assignment = np.zeros(n, dtype=np.int64)
        # Initial nearest-center assignment (iteration -1 state).
        self.assignment = self._nearest(np.arange(n), None)
        self._changed = np.zeros(n, dtype=bool)
        return ctx.all_vertices()

    def state_bytes(self, ctx: Context) -> int:
        return ctx.n_vertices * (8 + 1) + self.k * 16

    def _nearest(self, vids: np.ndarray,
                 votes: np.ndarray | None) -> np.ndarray:
        # A frontier is sorted unique, so n ids are every vertex in
        # order (every step's: k-means is always active); read the
        # points in place rather than copy them.
        pts = (self.points if vids.size == self.points.shape[0]
               else self.points[vids])
        centers = self.centers
        # Squared distances to each center, (|vids|, k), summed one
        # coordinate at a time, left to right — the order in which
        # ``.sum(axis=-1)`` adds fewer than 8 terms (the points are
        # 2-D) — without building a (|vids|, k, d) broadcast.
        d2 = (pts[:, 0, None] - centers[None, :, 0]) ** 2
        for j in range(1, pts.shape[1]):
            d2 += (pts[:, j, None] - centers[None, :, j]) ** 2
        if votes is not None:
            d2 = d2 - self.reward * votes
        return np.argmin(d2, axis=1).astype(np.int64)

    def gather_edge(self, ctx, nbr, center, eid):
        # One-hot neighbor votes for their current clusters.
        votes = np.zeros((nbr.size, self.k))
        votes[np.arange(nbr.size), self.assignment[nbr]] = 1.0
        return votes

    def gather_source(self, ctx):
        return self.assignment

    def apply(self, ctx, vids, acc):
        new_assign = self._nearest(vids, acc)
        changed = new_assign != self.assignment[vids]
        self.assignment[vids] = new_assign
        self._changed[vids] = changed
        ctx.add_work(float(vids.size) * self.k * 4.0)

    def scatter_edges(self, ctx, center, nbr, eid):
        return self._changed[center]

    def select_next_frontier(self, ctx, signaled):
        return ctx.all_vertices()

    def on_iteration_end(self, ctx):
        # Recompute centers from the synchronous assignment snapshot:
        # per-coordinate member sums over the member counts. bincount
        # adds the members in index order, as ``mean(axis=0)`` over a
        # cluster's rows does, so each center has the mean's bits; an
        # empty cluster keeps its center.
        old = self.centers.copy()
        sizes = np.bincount(self.assignment, minlength=self.k)
        nonempty = sizes > 0
        for j in range(self.points.shape[1]):
            sums = np.bincount(self.assignment, weights=self.points[:, j],
                               minlength=self.k)
            self.centers[nonempty, j] = sums[nonempty] / sizes[nonempty]
        shift = float(np.abs(self.centers - old).max())
        self._stable = (not self._changed.any()) and shift < self.center_tol
        self._changed[:] = False

    def converged(self, ctx) -> bool:
        return self._stable

    def result(self, ctx) -> dict:
        d2 = ((self.points - self.centers[self.assignment]) ** 2).sum(axis=1)
        sizes = np.bincount(self.assignment, minlength=self.k)
        return {
            "inertia": float(d2.sum()),
            "cluster_sizes": sizes.tolist(),
        }
