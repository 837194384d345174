"""Structural analysis of graphs: degree distributions and power-law fits.

The paper characterizes graphs by size (``nedges``) and the power-law
exponent ``α`` of the degree distribution ``P(k) ~ k^-α`` (Section 2.2).
This module computes the empirical distribution and a maximum-likelihood
estimate of ``α`` so that tests can verify the synthetic generators
actually produce the structures the experiment matrix claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.errors import ValidationError
from repro.graph.csr import Graph


def degree_distribution(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Empirical degree distribution ``P(k)``.

    Returns
    -------
    (degrees, fraction):
        ``degrees`` — sorted unique degree values ``k`` present in the
        graph; ``fraction`` — fraction of vertices with each degree
        (``n_k / n``, summing to 1).
    """
    deg = graph.degree
    ks, counts = np.unique(deg, return_counts=True)
    return ks, counts / graph.n_vertices


def fit_power_law_alpha(degrees: np.ndarray, *, k_min: int = 1) -> float:
    """Maximum-likelihood estimate of the power-law exponent ``α``.

    Uses the standard continuous-approximation MLE (Clauset et al.):
    ``α = 1 + n / Σ ln(k_i / (k_min - 1/2))`` over degrees ``k_i >= k_min``.

    Parameters
    ----------
    degrees:
        Per-vertex degree array.
    k_min:
        Minimum degree included in the fit (small-degree saturation is
        not power-law in most generators).
    """
    degrees = np.asarray(degrees)
    tail = degrees[degrees >= k_min]
    if tail.size < 2:
        raise ValidationError(
            f"need at least 2 degrees >= k_min={k_min} to fit a power law"
        )
    logs = np.log(tail / (k_min - 0.5))
    total = logs.sum()
    if total <= 0:
        raise ValidationError("degenerate degree distribution; cannot fit α")
    return 1.0 + tail.size / total


@dataclass(frozen=True)
class GraphSummary:
    """Compact structural summary of a graph."""

    n_vertices: int
    n_edges: int
    directed: bool
    min_degree: int
    max_degree: int
    mean_degree: float
    alpha_mle: float | None

    def as_row(self) -> str:
        """One-line human-readable summary."""
        alpha = ("n/a" if self.alpha_mle is None
                 else f"{self.alpha_mle:.2f}")
        return (f"|V|={self.n_vertices:>9,} |E|={self.n_edges:>10,} "
                f"deg[{self.min_degree},{self.max_degree}] "
                f"mean={self.mean_degree:.2f} α̂={alpha}")


def summarize(graph: Graph, *, fit_alpha: bool = True,
              k_min: int = 2) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    deg = graph.degree
    alpha = None
    if fit_alpha:
        try:
            alpha = fit_power_law_alpha(deg, k_min=k_min)
        except ValidationError:
            alpha = None
    return GraphSummary(
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        directed=graph.directed,
        min_degree=int(deg.min()) if deg.size else 0,
        max_degree=int(deg.max()) if deg.size else 0,
        mean_degree=float(deg.mean()) if deg.size else 0.0,
        alpha_mle=alpha,
    )
