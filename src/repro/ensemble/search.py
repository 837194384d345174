"""Best-ensemble search over a corpus of runs (paper Sections 5.2-5.4).

The paper asks, for each ensemble size N: which N of the 215 runs
maximize spread (or coverage)? Exhaustive enumeration is infeasible
beyond tiny sizes (C(215, 10) ≈ 10^16), so the search uses a beam over
index-ordered subsets with incremental scoring:

- **spread** — a state carries its pairwise-distance sum; extending by
  candidate ``j`` adds ``Σ_{i∈state} P[j, i]``;
- **coverage** — a state carries the per-sample minimum distance to its
  members; extending by ``j`` takes an elementwise ``min`` with the
  candidate-to-sample distance row ``D[j]``.

The best beam state is then refined by swap local search. The same
machinery returns the top-K ensembles for the paper's shadowing-free
frequency analysis (Figures 20-21).

The search runs on the blocked, batched engine of
:mod:`repro.ensemble.fast` (DESIGN §15): tiled distance kernels behind
an LRU byte budget, one batched step per beam level, incremental swap
refinement, and — for coverage — a lazy-greedy submodular selector
(``strategy="greedy"``) with the (1 − 1/e) guarantee. Candidates are
ranked through one tie-stable rule
(:func:`repro.ensemble.fast.tie_sorted`): scores within 1e-12 are equal
and the lexicographically smallest index tuple wins. The exact
enumeration and the original evaluator the engine is held to live in
``tests/ensemble_oracle.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.ensemble.budgets import SEARCH_SAMPLES, WIDE_SEARCH_SAMPLES
from repro.ensemble.ensemble import Ensemble
from repro.ensemble.fast import FastEngine, tie_sorted
from repro.obs.telemetry import get_telemetry

VALID_STRATEGIES = ("beam", "greedy")


def _resolve_strategy(strategy: "str | None", metric: str) -> str:
    if strategy is None:
        strategy = "beam"
    if strategy not in VALID_STRATEGIES:
        raise ValidationError(
            f"strategy must be one of {VALID_STRATEGIES}")
    if strategy == "greedy" and metric != "coverage":
        raise ValidationError(
            "strategy='greedy' applies to the coverage metric only "
            "(spread is not submodular over index-ordered subsets)")
    return strategy


@dataclass(frozen=True)
class SearchResult:
    """One discovered ensemble and its score under the search metric."""

    ensemble: Ensemble
    score: float
    indices: tuple[int, ...]
    metric: str


def _pool_matrix(pool: "Ensemble | list[BehaviorVector]",
                 space: "BehaviorSpace | None"):
    """The space, the pool as a vector list, and its coordinate matrix."""
    space = space or BehaviorSpace()
    vectors = list(pool.members if isinstance(pool, Ensemble) else pool)
    return space, vectors, space.to_matrix(vectors)


def _result(vectors, kind, metric, score, indices) -> SearchResult:
    indices = tuple(int(i) for i in indices)
    return SearchResult(
        ensemble=Ensemble(members=tuple(vectors[i] for i in indices),
                          name=f"{kind}-{metric}-{len(indices)}"),
        score=float(score),
        indices=indices,
        metric=metric,
    )


@contextmanager
def _search_span(engine: FastEngine, size: int,
                 strategy: str) -> Iterator[None]:
    """One ``ensemble_search`` span around one search; its event
    carries the work the search added to the engine's counters."""
    tel = get_telemetry()
    cache = engine.dist.cache
    states, reevals = engine.states, engine.reevaluations
    sweeps = engine.sweeps
    hits, misses = cache.hits, cache.misses
    with tel.span("ensemble_search", metric=engine.metric, size=size,
                  strategy=strategy) as span:
        yield
        if tel.enabled:
            span.set(states=engine.states - states,
                     cache_hits=cache.hits - hits,
                     cache_misses=cache.misses - misses)
            if strategy == "greedy":
                span.set(reevaluations=engine.reevaluations - reevals)
            if engine.sweeps > sweeps:  # a coverage refine ran
                span.set(sweeps=engine.sweeps - sweeps)


def _search_best(engine, size, beam_width, refine, strategy):
    """One best-of-size search over a built engine."""
    if size < 1:
        raise ValidationError("size must be >= 1")
    if size > engine.n:
        raise ValidationError(f"cannot pick {size} of {engine.n} runs")
    with _search_span(engine, size, strategy):
        if strategy == "greedy":
            indices, score = engine.greedy(size)
        else:
            score, indices = tie_sorted(engine.beam(size, beam_width))[0]
        if refine:
            indices, score = engine.refine(indices)
    return tuple(int(i) for i in indices), float(score)


def best_ensemble(
    pool: "Ensemble | list[BehaviorVector]",
    size: int,
    metric: str = "spread",
    *,
    space: BehaviorSpace | None = None,
    samples: np.ndarray | None = None,
    n_samples: int = SEARCH_SAMPLES,
    seed: int = 0,
    beam_width: int = 64,
    refine: bool = True,
    strategy: "str | None" = None,
) -> SearchResult:
    """Find the (approximately) best size-``size`` ensemble in the pool.

    ``n_samples`` is the coverage *search* budget
    (:data:`~repro.ensemble.budgets.SEARCH_SAMPLES`); re-score the
    result with :func:`repro.ensemble.metrics.coverage` at the
    reporting budget before quoting it. ``strategy="greedy"``
    (coverage only) swaps the beam for the lazy-greedy submodular
    selector.
    """
    return best_ensemble_curve(
        pool, [size], metric, space=space, samples=samples,
        n_samples=n_samples, seed=seed, beam_width=beam_width,
        refine=refine, strategy=strategy)[int(size)]


def top_k_ensembles(
    pool: "Ensemble | list[BehaviorVector]",
    size: int,
    metric: str = "spread",
    *,
    k: int = 100,
    space: BehaviorSpace | None = None,
    samples: np.ndarray | None = None,
    n_samples: int = WIDE_SEARCH_SAMPLES,
    seed: int = 0,
    beam_width: int = 400,
) -> list[SearchResult]:
    """The ``k`` best size-``size`` ensembles found by a wide beam.

    Used for the paper's shadowing analysis (Section 5.5): within the
    100 best ensembles, the frequency of appearance of each algorithm
    indicates its contribution to diversity. ``n_samples`` defaults to
    the wide-beam budget
    (:data:`~repro.ensemble.budgets.WIDE_SEARCH_SAMPLES`).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    space, vectors, mat = _pool_matrix(pool, space)
    engine = FastEngine(mat, metric, space=space, samples=samples,
                        n_samples=n_samples, seed=seed)
    if size > engine.n:
        raise ValidationError(f"cannot pick {size} of {engine.n} runs")
    with _search_span(engine, size, "beam"):
        ordered = tie_sorted(engine.beam(size, max(beam_width, k)))
    return [_result(vectors, "top", metric, score, indices)
            for score, indices in ordered[:k]]


def best_ensemble_curve(
    pool: "Ensemble | list[BehaviorVector]",
    sizes: "list[int] | tuple[int, ...]",
    metric: str = "spread",
    *,
    space: BehaviorSpace | None = None,
    samples: np.ndarray | None = None,
    n_samples: int = SEARCH_SAMPLES,
    seed: int = 0,
    beam_width: int = 64,
    refine: bool = True,
    strategy: "str | None" = None,
) -> dict[int, SearchResult]:
    """Best ensembles across a range of sizes (the Figs 14-19 curves).

    The engine, and with it the blocked distance tiles, is built once
    and shared by every size, so a 20-point curve pays for one
    distance materialization instead of 20.
    """
    strategy = _resolve_strategy(strategy, metric)
    space, vectors, mat = _pool_matrix(pool, space)
    engine = FastEngine(mat, metric, space=space, samples=samples,
                        n_samples=n_samples, seed=seed)
    curve: dict[int, SearchResult] = {}
    for size in sizes:
        indices, score = _search_best(engine, int(size), beam_width,
                                      refine, strategy)
        curve[int(size)] = _result(vectors, "best", metric, score, indices)
    return curve


def best_subset(
    points: np.ndarray,
    size: int,
    metric: str = "spread",
    *,
    space: BehaviorSpace | None = None,
    samples: np.ndarray | None = None,
    n_samples: int = SEARCH_SAMPLES,
    seed: int = 0,
    beam_width: int = 64,
    refine: bool = True,
    strategy: "str | None" = None,
) -> tuple[tuple[int, ...], float]:
    """Dimension-agnostic best-subset search over raw coordinates.

    Like :func:`best_ensemble` but over an ``(n, d)`` point matrix in a
    ``d``-dimensional unit hypercube (the extended temporal space, or
    any user-defined space). Returns ``(indices, score)``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    space = space or BehaviorSpace(dims=points.shape[1])
    if space.dims != points.shape[1]:
        raise ValidationError(
            f"points have {points.shape[1]} dims, space has {space.dims}")
    strategy = _resolve_strategy(strategy, metric)
    engine = FastEngine(points, metric, space=space, samples=samples,
                        n_samples=n_samples, seed=seed)
    return _search_best(engine, size, beam_width, refine, strategy)
