"""Spread and coverage — the paper's two ensemble-quality metrics.

**Spread** (Section 5.1): the mean pairwise Euclidean distance between
the behavior vectors of an ensemble — "a form of dispersion"; tightly
clustered ensembles score low, dispersed ones high.

**Coverage**: the paper defines the average minimum distance from
uniform sample points of the space to the nearest ensemble member, yet
plots coverage *increasing* with ensemble size and calls high coverage
desirable — so the reported quantity must be a decreasing transform of
that distance. We expose both: :func:`mean_min_distance` (the raw
average-min-distance) and :func:`coverage` ``= diam(space) −
mean_min_distance`` (monotone in sampling quality, same optimizer
argmax, bounded by the space diameter). See DESIGN.md §2.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace
from repro.ensemble.budgets import REPORT_SAMPLES
from repro.ensemble.ensemble import Ensemble


def _as_matrix(ensemble: "Ensemble | np.ndarray",
               space: BehaviorSpace) -> np.ndarray:
    if isinstance(ensemble, Ensemble):
        return ensemble.matrix(space)
    if isinstance(ensemble, (list, tuple)) and ensemble and not np.isscalar(
            ensemble[0]) and hasattr(ensemble[0], "as_array"):
        return space.to_matrix(ensemble)
    mat = np.atleast_2d(np.asarray(ensemble, dtype=np.float64))
    if mat.shape[1] != space.dims:
        raise ValidationError(
            f"points have {mat.shape[1]} dims, space has {space.dims}"
        )
    return mat


def spread(ensemble: "Ensemble | np.ndarray",
           *, space: BehaviorSpace | None = None) -> float:
    """Mean pairwise Euclidean distance between ensemble members.

    Returns 0.0 for ensembles with fewer than two members.
    """
    from scipy.spatial.distance import pdist

    space = space or BehaviorSpace()
    mat = _as_matrix(ensemble, space)
    if mat.shape[0] < 2:
        return 0.0
    return float(pdist(mat).mean())


def mean_min_distance(
    ensemble: "Ensemble | np.ndarray",
    *,
    space: BehaviorSpace | None = None,
    samples: np.ndarray | None = None,
    n_samples: int = REPORT_SAMPLES,
    seed: int = 0,
) -> float:
    """Average distance from uniform sample points to the nearest member.

    Parameters
    ----------
    samples:
        Pre-drawn sample points (reused across many evaluations by the
        search code); drawn fresh from ``space`` otherwise.
    n_samples, seed:
        Sampling budget when ``samples`` is not supplied — the
        *reporting* budget
        (:data:`~repro.ensemble.budgets.REPORT_SAMPLES`); the paper
        uses 10^6 points and Monte-Carlo error scales as 1/√n.
    """
    space = space or BehaviorSpace()
    mat = _as_matrix(ensemble, space)
    if mat.shape[0] == 0:
        raise ValidationError(
            "mean_min_distance of an empty ensemble is undefined")
    if samples is None:
        samples = space.sample(n_samples, seed=seed)
    from scipy.spatial import cKDTree

    tree = cKDTree(mat)
    dists, _ = tree.query(samples, k=1, workers=-1)
    return float(dists.mean())


def coverage(
    ensemble: "Ensemble | np.ndarray",
    *,
    space: BehaviorSpace | None = None,
    samples: np.ndarray | None = None,
    n_samples: int = REPORT_SAMPLES,
    seed: int = 0,
) -> float:
    """Coverage = space diameter − mean minimum distance (higher is better).

    An ensemble that leaves whole regions of the behavior space empty
    has sample points far from any member, a large mean-min-distance,
    and therefore low coverage.
    """
    space = space or BehaviorSpace()
    mmd = mean_min_distance(ensemble, space=space, samples=samples,
                            n_samples=n_samples, seed=seed)
    return space.diameter - mmd
