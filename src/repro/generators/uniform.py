"""Uniform-degree-regime generators: the paper's non-scale-free contrast.

Section 1: "in a graph derived from a linear solver, vertices have a
low, nearly uniform degree" — the opposite structural extreme from the
power-law sweep. Two generators cover that regime for Graph Analytics
experiments beyond the paper's matrix:

- :func:`erdos_renyi_graph` — G(n, m): every vertex's degree
  concentrates around the mean (binomial), the classic null model;
- :func:`regular_graph` — every vertex has exactly degree ``d``
  (configuration-model pairing with repair), the uniform limit.

Both return GA-domain problem instances, so every analytics algorithm
runs on them unmodified — letting users place *degree-distribution
extremes* into the behavior space next to the α sweep.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import first_occurrences
from repro.generators.pairs import distinct_pairs
from repro.generators.problem import ProblemInstance
from repro.generators.rng import make_rng
from repro.graph.csr import Graph


def erdos_renyi_graph(
    nedges: int,
    *,
    mean_degree: float = 8.0,
    seed: int = 0,
) -> ProblemInstance:
    """G(n, m) with ``n`` derived from the requested mean degree."""
    if nedges < 1:
        raise ValidationError("nedges must be >= 1")
    if mean_degree <= 0:
        raise ValidationError("mean_degree must be positive")
    n = max(2, int(round(2.0 * nedges / mean_degree)))
    rng = make_rng(seed, "uniform", "er")

    def draw(batch: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng.integers(0, n, size=batch)
        v = rng.integers(0, n, size=batch)
        keep = u != v
        u, v = u[keep], v[keep]
        return np.minimum(u, v), np.maximum(u, v)

    lo, hi = distinct_pairs(draw, nedges, n, oversample=1.2)
    graph = Graph.from_edges(
        n, lo, hi,
        directed=False, dedup=False, drop_self_loops=False,
        meta={"generator": "erdos-renyi", "nedges": nedges, "seed": seed},
    )
    return ProblemInstance(
        graph=graph, domain="ga",
        params={"nedges": nedges, "mean_degree": mean_degree, "seed": seed},
    )


def regular_graph(
    n_vertices: int,
    degree: int,
    *,
    seed: int = 0,
) -> ProblemInstance:
    """A (near-)``degree``-regular graph via configuration-model pairing.

    Stubs are shuffled and paired; self-loops and duplicate edges are
    dropped, so a few vertices may end slightly below ``degree`` (the
    deficit is bounded and asserted by tests). ``n_vertices × degree``
    must be even.
    """
    if n_vertices < 4:
        raise ValidationError("n_vertices must be >= 4")
    if not 1 <= degree < n_vertices:
        raise ValidationError("degree must be in [1, n_vertices)")
    if (n_vertices * degree) % 2:
        raise ValidationError("n_vertices × degree must be even")
    rng = make_rng(seed, "uniform", "regular")

    stubs = np.repeat(np.arange(n_vertices, dtype=np.int64), degree)
    best: tuple[int, np.ndarray, np.ndarray] | None = None
    for _ in range(8):
        rng.shuffle(stubs)
        u = stubs[0::2]
        v = stubs[1::2]
        keep = u != v
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        first = first_occurrences(lo * np.int64(n_vertices) + hi)
        if best is None or first.size > best[0]:
            best = (first.size, lo[first], hi[first])
        if best[0] == stubs.size // 2:
            break
    _count, lo, hi = best
    graph = Graph.from_edges(
        n_vertices, lo, hi,
        directed=False, dedup=False, drop_self_loops=False,
        meta={"generator": "regular", "degree": degree, "seed": seed},
    )
    return ProblemInstance(
        graph=graph, domain="ga",
        params={"n_vertices": n_vertices, "degree": degree, "seed": seed},
    )
