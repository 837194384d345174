"""Empirical upper bounds for spread and coverage (paper Figs 14-19).

The paper plots, for each ensemble size, an empirical upper bound
"computed assuming ensemble members uniformly and maximally distributed
in the behavior space". We realize that with two deterministic
constructions over the unit hypercube:

- :func:`max_spread_points` — greedy mean-pairwise-distance
  maximization over a candidate pool seeded with the hypercube's
  corners (the optimum concentrates on corners: antipodal pairs realize
  the diameter);
- :func:`max_coverage_points` — greedy farthest-point (maximin)
  sampling, the classic 2-approximation of the k-center objective,
  which is what minimizes the mean minimum distance in practice.

Both are upper bounds *empirically*: no achievable ensemble of real
runs exceeded them in any experiment, and tests assert that invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace
from repro.ensemble.metrics import coverage, spread
from repro.generators.rng import make_rng


def _candidate_pool(space: BehaviorSpace, n_random: int,
                    seed: int) -> np.ndarray:
    """Hypercube corners + midpoint + uniform random points."""
    dims = space.dims
    corners = np.array(
        [[(i >> b) & 1 for b in range(dims)] for i in range(2 ** dims)],
        dtype=np.float64,
    )
    rng = make_rng(seed, "bounds", "pool")
    randoms = rng.random((n_random, dims))
    center = np.full((1, dims), 0.5)
    return np.vstack([corners, center, randoms])


def max_spread_points(
    n: int,
    *,
    space: BehaviorSpace | None = None,
    n_random: int = 2000,
    seed: int = 0,
) -> np.ndarray:
    """``n`` points greedily maximizing mean pairwise distance."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    space = space or BehaviorSpace()
    pool = _candidate_pool(space, n_random, seed)
    # Start from the most antipodal corner pair (indices 0 and 2^d - 1).
    chosen = [0, 2 ** space.dims - 1][:n]
    if n == 1:
        return pool[chosen[:1]]
    # dist_sum[c] = sum of distances from pool point c to chosen points.
    dist_sum = np.linalg.norm(pool[:, None, :] - pool[None, chosen, :],
                              axis=2).sum(axis=1)
    while len(chosen) < n:
        # Adding c makes the new pairwise sum old_sum + dist_sum[c];
        # maximizing the mean is maximizing dist_sum[c].
        best = int(np.argmax(dist_sum))
        chosen.append(best)
        dist_sum += np.linalg.norm(pool - pool[best], axis=1)
    return pool[chosen]


def max_coverage_points(
    n: int,
    *,
    space: BehaviorSpace | None = None,
    n_random: int = 2000,
    n_samples: int = 4000,
    seed: int = 0,
    refine_passes: int = 3,
) -> np.ndarray:
    """``n`` points greedily maximizing coverage (minimizing the mean
    minimum distance over a fixed uniform sample set), then refined by
    single-point swaps.

    Coverage gain is monotone submodular, so the greedy choice is
    near-optimal; the swap pass closes most of the remaining gap. This
    construction empirically dominates every achievable run ensemble
    (asserted by tests against random ensembles at matched sizes).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    space = space or BehaviorSpace()
    pool = _candidate_pool(space, n_random, seed)
    samples = space.sample(n_samples, seed=seed)
    # D[c, s] = distance from pool candidate c to sample s.
    diff = pool[:, None, :] - samples[None, :, :]
    D = np.sqrt((diff ** 2).sum(axis=2))

    chosen: list[int] = []
    min_dist = np.full(samples.shape[0], np.inf)
    for _ in range(n):
        # Adding c gives mean(min(min_dist, D[c])); pick the argmin.
        means = np.minimum(min_dist[None, :], D).mean(axis=1)
        means[chosen] = np.inf
        best = int(np.argmin(means))
        chosen.append(best)
        min_dist = np.minimum(min_dist, D[best])

    # Swap refinement.
    for _ in range(refine_passes):
        improved = False
        for pos in range(len(chosen)):
            others = [chosen[i] for i in range(len(chosen)) if i != pos]
            payload = (D[others].min(axis=0) if others
                       else np.full(samples.shape[0], np.inf))
            means = np.minimum(payload[None, :], D).mean(axis=1)
            means[chosen] = np.inf
            cand = int(np.argmin(means))
            current_mean = np.minimum(payload, D[chosen[pos]]).mean()
            if means[cand] < current_mean - 1e-12:
                chosen[pos] = cand
                improved = True
        if not improved:
            break
    return pool[chosen]


@dataclass(frozen=True)
class UpperBounds:
    """Spread/coverage upper-bound curves over ensemble sizes."""

    sizes: tuple[int, ...]
    spread_bound: tuple[float, ...]
    coverage_bound: tuple[float, ...]

    @classmethod
    def compute(
        cls,
        sizes: "list[int] | tuple[int, ...]",
        *,
        space: BehaviorSpace | None = None,
        samples: np.ndarray | None = None,
        n_samples: int = 20_000,
        seed: int = 0,
    ) -> "UpperBounds":
        space = space or BehaviorSpace()
        if samples is None:
            samples = space.sample(n_samples, seed=seed)
        spreads = []
        coverages = []
        for size in sizes:
            if size < 1:
                raise ValidationError("ensemble sizes must be >= 1")
            spreads.append(spread(max_spread_points(size, space=space,
                                                    seed=seed), space=space))
            coverages.append(coverage(
                max_coverage_points(size, space=space, seed=seed),
                space=space, samples=samples))
        return cls(sizes=tuple(int(s) for s in sizes),
                   spread_bound=tuple(spreads),
                   coverage_bound=tuple(coverages))
