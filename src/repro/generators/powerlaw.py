"""Scale-free graph generator (Chung-Lu model).

Reproduces the paper's synthetic graphs for Graph Analytics and
Clustering: parameterized by the number of edges ``nedges`` and the
power-law exponent ``α`` of the degree distribution ``P(k) ~ k^-α``
(Equation 1), with the vertex count derived so the expected degree
matches — "accepting slight variation in the number of vertices"
(Section 3.2).

Algorithm
---------
1. Choose a truncated discrete power law ``P(k) ∝ k^-α`` on
   ``k ∈ [1, k_max]`` with the natural cutoff ``k_max ≈ √(2·nedges)``.
2. Derive ``n = 2·nedges / E[k]`` and sample an expected-degree weight
   per vertex from ``P``.
3. Draw ``2·nedges`` edge endpoints with probability proportional to the
   weights and pair consecutive draws (fast Chung-Lu). Self-loops and
   duplicates are dropped, then edges are re-drawn in batches until the
   target count is met (or provably unreachable).

The resulting degree distribution's MLE exponent tracks the requested α
(verified by tests within generator tolerance).
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.generators.pairs import distinct_pairs
from repro.generators.problem import ProblemInstance
from repro.generators.rng import make_rng
from repro.graph.csr import Graph

#: Range of α seen in real-world scale-free graphs (paper Section 2.2).
ALPHA_REAL_WORLD = (2.0, 3.0)


def _truncated_power_law(alpha: float,
                         k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Support ``1..k_max`` and probabilities of ``P(k) ∝ k^-α``."""
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    pmf = ks ** (-alpha)
    pmf /= pmf.sum()
    return ks.astype(np.int64), pmf


def powerlaw_graph(
    nedges: int,
    alpha: float,
    *,
    seed: int = 0,
    directed: bool = False,
    with_points: bool = False,
    with_weights: bool = False,
) -> ProblemInstance:
    """Generate a scale-free graph with ``~nedges`` edges and exponent ``α``.

    Parameters
    ----------
    nedges:
        Target number of (logical) edges. The achieved count is within
        :data:`~repro.generators.pairs.EDGE_TOLERANCE` of the target
        or a :class:`GraphConstructionError` is raised.
    alpha:
        Power-law exponent; the paper sweeps 2.0–3.0.
    seed:
        Root seed; all internal streams derive from it.
    directed:
        The paper's GA graphs are undirected; directed is provided for
        library users.
    with_points:
        Attach Gaussian 2-D data points per vertex (Clustering domain).
    with_weights:
        Attach Gaussian edge weights.

    Returns
    -------
    ProblemInstance
        Domain ``"clustering"`` if ``with_points`` else ``"ga"``.
    """
    if nedges < 1:
        raise ValidationError("nedges must be >= 1")
    if alpha <= 1.0:
        raise ValidationError("power-law exponent must exceed 1.0 for a "
                              "normalizable degree distribution")

    k_max = max(2, int(round((2.0 * nedges) ** 0.5)))
    ks, pmf = _truncated_power_law(alpha, k_max)
    mean_k = float((ks * pmf).sum())
    n = max(2, int(round(2.0 * nedges / mean_k)))

    rng_deg = make_rng(seed, "powerlaw", "degrees")
    rng_pair = make_rng(seed, "powerlaw", "pairing")

    weights = rng_deg.choice(ks, size=n, p=pmf).astype(np.float64)
    endpoint_p = weights / weights.sum()

    def draw(batch: int) -> tuple[np.ndarray, np.ndarray]:
        draws = rng_pair.choice(n, size=2 * batch, p=endpoint_p)
        u = draws[:batch].astype(np.int64)
        v = draws[batch:].astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        if directed:
            return u, v
        return np.minimum(u, v), np.maximum(u, v)

    src, dst = distinct_pairs(draw, nedges, n)

    edge_weight = None
    if with_weights:
        rng_w = make_rng(seed, "powerlaw", "weights")
        edge_weight = np.abs(rng_w.normal(1.0, 0.25, size=src.size)) + 1e-6

    graph = Graph.from_edges(
        n, src, dst,
        weight=edge_weight,
        directed=directed,
        dedup=False,  # distinct_pairs returns distinct pairs
        drop_self_loops=False,
        meta={"generator": "powerlaw", "nedges": nedges, "alpha": alpha,
              "seed": seed},
    )

    inputs: dict = {}
    domain = "ga"
    if with_points:
        rng_pts = make_rng(seed, "powerlaw", "points")
        inputs["points"] = rng_pts.normal(0.0, 1.0, size=(n, 2))
        domain = "clustering"

    return ProblemInstance(
        graph=graph,
        domain=domain,
        inputs=inputs,
        params={"nedges": nedges, "alpha": alpha, "seed": seed,
                "directed": directed},
    )
