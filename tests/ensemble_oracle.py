"""The original monolithic ensemble search, kept as the selection oracle.

Full ``squareform(pdist(...))`` / ``cdist`` materialization, a Python
loop per beam state, swap refinement recomputed from scratch per
position. ``_Evaluator``, ``_beam_search`` and ``_swap_refine`` are the
code :mod:`repro.ensemble.search` first shipped, moved here unedited
(minus a telemetry counter) and not to be optimised: the shipped
:class:`~repro.ensemble.fast.FastEngine` must select the same index
tuples with scores equal to 1e-9, both ranking through the tie-stable
rule of :func:`repro.ensemble.fast.tie_sorted`. :class:`Oracle` is the
door the parity suites and ``benchmarks/test_bench_ensemble.py`` use,
the way they import :func:`tests.conftest.unfused`.

:func:`_greedy` is the reference for the engine's CELF lazy-greedy
coverage selector: the plain, non-lazy greedy, every gain recomputed
fresh from the full ``cdist(pool, samples)`` at every step.

:func:`exhaustive_best` is the second oracle: exact enumeration off the
full distance matrix, for pools small enough to enumerate.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.ensemble.budgets import SEARCH_SAMPLES, WIDE_SEARCH_SAMPLES
from repro.ensemble.ensemble import Ensemble
from repro.ensemble.fast import (
    TIE_TOL,
    boundary_positions,
    tie_argmax,
    tie_sorted,
)
from repro.ensemble.search import SearchResult, _pool_matrix, _result

VALID_METRICS = ("spread", "coverage")


class _Evaluator:
    """Incremental spread/coverage scoring over a fixed candidate pool."""

    def __init__(
        self,
        pool: np.ndarray,
        metric: str,
        *,
        space: BehaviorSpace,
        samples: np.ndarray | None,
        n_samples: int,
        seed: int,
    ) -> None:
        if metric not in VALID_METRICS:
            raise ValidationError(f"metric must be one of {VALID_METRICS}")
        self.metric = metric
        self.pool = pool
        self.n = pool.shape[0]
        self.space = space
        if metric == "spread":
            self.P = (squareform(pdist(pool)) if self.n > 1
                      else np.zeros((1, 1)))
            self.D = None
        else:
            if samples is None:
                samples = space.sample(n_samples, seed=seed)
            self.samples = samples
            self.D = cdist(pool, samples)  # (n_pool, n_samples)
            self.P = None

    # -- state = (indices tuple, payload) ------------------------------
    def initial_state(self, first: int):
        if self.metric == "spread":
            return ((first,), 0.0)
        return ((first,), self.D[first].copy())

    def extend(self, state, j: int):
        indices, payload = state
        if self.metric == "spread":
            add = float(self.P[j, list(indices)].sum())
            return (indices + (j,), payload + add)
        return (indices + (j,), np.minimum(payload, self.D[j]))

    def score(self, state) -> float:
        indices, payload = state
        k = len(indices)
        if self.metric == "spread":
            if k < 2:
                return 0.0
            return 2.0 * payload / (k * (k - 1))
        return self.space.diameter - float(payload.mean())

    def scores_of_extensions(self, state,
                             candidates: np.ndarray) -> np.ndarray:
        """Vectorized scores of extending ``state`` by each candidate."""
        indices, payload = state
        k = len(indices) + 1
        if self.metric == "spread":
            adds = self.P[candidates][:, list(indices)].sum(axis=1)
            sums = payload + adds
            if k < 2:
                return np.zeros(candidates.size)
            return 2.0 * sums / (k * (k - 1))
        mins = np.minimum(payload[None, :], self.D[candidates])
        return self.space.diameter - mins.mean(axis=1)

    def score_indices(self, indices) -> float:
        """Score an arbitrary index set from scratch."""
        idx = list(indices)
        if self.metric == "spread":
            if len(idx) < 2:
                return 0.0
            sub = self.P[np.ix_(idx, idx)]
            return float(sub.sum() / (len(idx) * (len(idx) - 1)))
        payload = self.D[idx].min(axis=0)
        return self.space.diameter - float(payload.mean())


def _beam_search(ev: _Evaluator, size: int, beam_width: int) -> list[tuple]:
    """Top states of exactly ``size`` members via index-ordered beam.

    Tie-stable: per-state extension candidates keep everything within
    :data:`~repro.ensemble.fast.TIE_TOL` of the local cut, and the
    global per-level selection orders near-equal scores by index tuple
    (:func:`~repro.ensemble.fast.tie_sorted`), so the surviving beam —
    and hence the top-k sets feeding Figs 20-21 — is deterministic
    across NumPy versions.
    """
    states = [ev.initial_state(i) for i in range(ev.n)]
    if size == 1:
        return states
    for _level in range(1, size):
        scored: list[tuple[float, tuple, tuple]] = []
        for state in states:
            last = state[0][-1]
            length = len(state[0])
            # Feasibility bound: after picking candidate j there must be
            # enough higher indices left to reach the target size, so
            # j <= n - size + length.
            hi = ev.n - size + length + 1
            candidates = np.arange(last + 1, hi)
            if candidates.size == 0:
                continue
            cand_scores = ev.scores_of_extensions(state, candidates)
            # Keep the locally best extensions (with tie slack) to
            # bound work.
            for t in boundary_positions(cand_scores, beam_width):
                extended = ev.extend(state, int(candidates[t]))
                scored.append((float(cand_scores[t]), extended[0], extended))
        if not scored:
            raise ValidationError(
                f"pool of {ev.n} cannot form an ensemble of size {size}"
            )
        states = [item[2] for item in tie_sorted(scored)[:beam_width]]
    return states


def _swap_refine(ev: _Evaluator, indices: tuple[int, ...],
                 max_passes: int = 8) -> tuple[tuple[int, ...], float]:
    """Hill-climb by single-member swaps until no improvement.

    Each position's replacement candidates are scored in one vectorized
    sweep: for spread via the pairwise matrix, for coverage via a
    min over the remaining members' sample distances plus the
    candidate's row. Replacement ties (within
    :data:`~repro.ensemble.fast.TIE_TOL`) go to the smallest index.
    """
    current = list(indices)
    best_score = ev.score_indices(current)
    k = len(current)
    for _ in range(max_passes):
        improved = False
        for pos in range(k):
            others = [current[i] for i in range(k) if i != pos]
            if ev.metric == "spread":
                if k < 2:
                    break
                base = float(ev.P[np.ix_(others, others)].sum()) / 2.0
                adds = ev.P[:, others].sum(axis=1)
                scores = 2.0 * (base + adds) / (k * (k - 1))
            else:
                payload = (ev.D[others].min(axis=0) if others
                           else np.full(ev.D.shape[1], np.inf))
                mins = np.minimum(payload[None, :], ev.D)
                scores = ev.space.diameter - mins.mean(axis=1)
            scores[current] = -np.inf  # keep members distinct
            j = tie_argmax(scores)
            if scores[j] > best_score + TIE_TOL:
                current[pos] = j
                best_score = float(scores[j])
                improved = True
        if not improved:
            break
    return tuple(sorted(current)), best_score


def _greedy(ev: _Evaluator, size: int) -> tuple[tuple[int, ...], float]:
    """Plain greedy coverage: at every step, the member with the largest
    fresh marginal gain; exact ties go to the smallest index.

    Gains are formed as the engine forms them (``diam − mean`` of a row
    on the first step, the mean positive improvement over the payload
    after it), so the two select identical members, not merely members
    of 1e-9-close gain.
    """
    m = ev.D.shape[1]
    gains = ev.space.diameter - ev.D.sum(axis=1) / m
    selected: list[int] = []
    payload = None
    while len(selected) < size:
        if payload is not None:
            gains = np.maximum(payload[None, :] - ev.D, 0.0).sum(axis=1) / m
        gains[selected] = -np.inf
        j = int(np.argmax(gains))  # first maximum: the smallest index
        payload = ev.D[j] if payload is None else np.minimum(payload, ev.D[j])
        selected.append(j)
    return tuple(sorted(selected)), ev.space.diameter - float(payload.mean())


class Found(NamedTuple):
    indices: tuple[int, ...]
    score: float


class Oracle:
    """The oracle search over one vector pool; the distance matrix is
    built once and shared by every size."""

    def __init__(self, pool, metric: str, *, samples=None) -> None:
        space = BehaviorSpace()
        self.ev = _Evaluator(space.to_matrix(list(pool)), metric,
                             space=space, samples=samples,
                             n_samples=SEARCH_SAMPLES, seed=0)

    def top_k(self, size: int, k: int, beam_width: int = 400) -> list[Found]:
        states = _beam_search(self.ev, size, max(beam_width, k))
        ordered = tie_sorted([(self.ev.score(s), s[0]) for s in states])
        return [Found(tuple(int(i) for i in indices), float(score))
                for score, indices in ordered[:k]]

    def best(self, size: int, beam_width: int = 64,
             refine: bool = True, strategy: str = "beam") -> Found:
        if strategy == "greedy":
            indices, score = _greedy(self.ev, size)
        else:
            indices, score = self.top_k(size, 1, beam_width)[0]
        if refine:
            indices, score = _swap_refine(self.ev, indices)
        return Found(tuple(int(i) for i in indices), float(score))


def exhaustive_best(
    pool: "Ensemble | list[BehaviorVector]",
    size: int,
    metric: str = "spread",
    *,
    space: BehaviorSpace | None = None,
    samples: np.ndarray | None = None,
    n_samples: int = WIDE_SEARCH_SAMPLES,
    seed: int = 0,
    limit: int = 500_000,
) -> SearchResult:
    """Exact search by enumeration; refuses when C(n, size) exceeds
    ``limit``. Validates the beam search and the lazy-greedy
    (1 − 1/e) guarantee, so every combination is scored from scratch
    off the full distance matrix, sharing no code with
    :class:`~repro.ensemble.fast.FastEngine`.

    Tie-stable: combinations are enumerated in lexicographic order and
    a later combination only displaces the incumbent when it scores
    more than :data:`~repro.ensemble.fast.TIE_TOL` better, so equal
    scores keep the lexicographically smallest index tuple.
    """
    if metric not in VALID_METRICS:
        raise ValidationError(f"metric must be one of {VALID_METRICS}")
    space, vectors, mat = _pool_matrix(pool, space)
    n = len(vectors)
    total = math.comb(n, size)
    if total > limit:
        raise ValidationError(
            f"C({n}, {size}) = {total} exceeds the exhaustive limit {limit}"
        )
    if metric == "spread":
        pairwise = cdist(mat, mat)

        def score_of(combo):
            if size < 2:
                return 0.0
            return float(pairwise[np.ix_(combo, combo)].sum()
                         / (size * (size - 1)))
    else:
        if samples is None:
            samples = space.sample(n_samples, seed=seed)
        to_samples = cdist(mat, samples)

        def score_of(combo):
            return space.diameter - float(
                to_samples[list(combo)].min(axis=0).mean())

    best_indices: tuple[int, ...] | None = None
    best_score = -np.inf
    for combo in itertools.combinations(range(n), size):
        s = score_of(combo)
        if s > best_score + TIE_TOL:
            best_score, best_indices = s, combo
    return _result(vectors, "exact", metric, best_score, best_indices)
