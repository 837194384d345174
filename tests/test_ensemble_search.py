"""Tests for best-ensemble search, bounds, frequency, and constraints."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.ensemble.bounds import (
    UpperBounds,
    max_coverage_points,
    max_spread_points,
)
from repro.ensemble.constrained import (
    limit_to_algorithms,
    limit_to_structures,
    truncate_trace,
)
from repro.ensemble.fast import FastEngine, tie_sorted
from repro.ensemble.frequency import algorithm_frequencies
from repro.ensemble.metrics import coverage, spread
from repro.ensemble.search import (
    best_ensemble,
    best_ensemble_curve,
    best_subset,
    top_k_ensembles,
)
from repro.generators.rng import make_rng
from tests.ensemble_oracle import Oracle, exhaustive_best


def random_pool(n=24, seed=0, tag_algorithms=("a", "b", "c")):
    rng = make_rng(seed, "test-pool")
    pool = []
    for i in range(n):
        coords = rng.random(4)
        tag = (tag_algorithms[i % len(tag_algorithms)], 10 ** (i % 3), 2.0)
        pool.append(BehaviorVector(*coords, tag=tag))
    return pool


class TestBestEnsemble:
    def test_matches_exhaustive_spread(self):
        pool = random_pool(14, seed=3)
        beam = best_ensemble(pool, 4, "spread", beam_width=64)
        exact = exhaustive_best(pool, 4, "spread")
        assert beam.score == pytest.approx(exact.score, rel=1e-9)

    def test_matches_exhaustive_coverage(self):
        space = BehaviorSpace()
        samples = space.sample(1500, seed=4)
        pool = random_pool(12, seed=5)
        beam = best_ensemble(pool, 3, "coverage", samples=samples,
                             beam_width=64)
        exact = exhaustive_best(pool, 3, "coverage", samples=samples)
        assert beam.score == pytest.approx(exact.score, rel=1e-6)

    def test_score_equals_metric_recompute(self):
        pool = random_pool(18, seed=6)
        res = best_ensemble(pool, 5, "spread")
        assert res.score == pytest.approx(spread(res.ensemble), rel=1e-9)

    def test_coverage_score_recompute(self):
        space = BehaviorSpace()
        samples = space.sample(2000, seed=7)
        pool = random_pool(18, seed=7)
        res = best_ensemble(pool, 4, "coverage", samples=samples)
        assert res.score == pytest.approx(
            coverage(res.ensemble, samples=samples), rel=1e-9)

    def test_distinct_members(self):
        pool = random_pool(20, seed=8)
        res = best_ensemble(pool, 6, "spread")
        assert len(set(res.indices)) == 6

    def test_validation(self):
        pool = random_pool(5)
        with pytest.raises(ValidationError):
            best_ensemble(pool, 9, "spread")
        with pytest.raises(ValidationError):
            best_ensemble(pool, 0, "spread")
        with pytest.raises(ValidationError):
            best_ensemble(pool, 2, "entropy")

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    def test_beam_width_below_one_is_rejected(self, metric):
        """A non-positive width fails where the beam runs, as a
        ValidationError rather than NumPy's partition error; the
        greedy selector never reads the width."""
        pool = random_pool(12, seed=2)
        for width in (0, -3):
            with pytest.raises(ValidationError, match="beam_width"):
                best_ensemble(pool, 3, metric, beam_width=width)
        if metric == "coverage":
            greedy = best_ensemble(pool, 3, metric, beam_width=0,
                                   strategy="greedy")
            assert greedy.indices == best_ensemble(
                pool, 3, metric, strategy="greedy").indices

    def test_samples_off_the_space_are_rejected(self):
        """Coverage samples must lie in the space: a wrong width is a
        ValidationError when the engine is built, before any tile."""
        pool = random_pool(8)
        rng = np.random.default_rng(0)
        for samples in (rng.random((50, 3)), rng.random((50, 5)),
                        rng.random(4)):
            with pytest.raises(ValidationError, match="samples"):
                FastEngine(BehaviorSpace().to_matrix(pool), "coverage",
                           space=BehaviorSpace(), samples=samples,
                           n_samples=0, seed=0)
            with pytest.raises(ValidationError, match="samples"):
                best_ensemble(pool, 3, "coverage", samples=samples)

    def test_curve_keys(self):
        pool = random_pool(15, seed=9)
        curve = best_ensemble_curve(pool, [2, 4, 6], "spread")
        assert sorted(curve) == [2, 4, 6]
        # Best spread is non-increasing with ensemble size (adding
        # members can only pull the mean pairwise distance down once
        # the two farthest points are in).
        assert curve[2].score >= curve[4].score >= curve[6].score

    @pytest.mark.parametrize("cls", [
        pytest.param(FastEngine, id="fast-FastEngine")])
    def test_curve_builds_engine_once(self, monkeypatch, cls):
        calls = []
        original = cls.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
        pool = random_pool(15, seed=9)
        curve = best_ensemble_curve(pool, [2, 3, 4, 5], "spread")
        assert len(calls) == 1, "curve must share one engine"
        # Sharing the engine changes nothing about the results.
        for size in (2, 5):
            solo = best_ensemble(pool, size, "spread")
            assert curve[size].indices == solo.indices
            assert curve[size].score == pytest.approx(solo.score,
                                                      rel=1e-12)

    def test_engine_keyword_is_gone(self):
        """One search path: no public search function selects another."""
        pool = random_pool(8)
        mat = BehaviorSpace().to_matrix(pool)
        for call in (lambda **kw: best_ensemble(pool, 3, **kw),
                     lambda **kw: top_k_ensembles(pool, 3, k=2, **kw),
                     lambda **kw: best_ensemble_curve(pool, [2, 3], **kw),
                     lambda **kw: best_subset(mat, 3, **kw)):
            call()
            with pytest.raises(TypeError, match="engine"):
                call(engine="fast")


class TestSearchSpan:
    def test_each_search_event_carries_its_own_work(self, tmp_path):
        """One ``ensemble_search`` event per size of a curve, each with
        the states and tile-cache lookups that search added — not the
        engine's running totals —, greedy's re-evaluations and coverage
        refine's sweeps."""
        from repro.obs.events import read_all_events
        from repro.obs.telemetry import configure, deactivate

        pool = random_pool(n=30)
        configure("full", events_path=tmp_path / "events.jsonl")
        try:
            best_ensemble_curve(pool, [2, 3], "spread")
            best_ensemble(pool, 4, "coverage", strategy="greedy",
                          n_samples=200)
        finally:
            deactivate()
        spans = [e for e in read_all_events(tmp_path)
                 if e.get("name") == "ensemble_search"]
        assert [(e["metric"], e["size"], e["strategy"]) for e in spans] \
            == [("spread", 2, "beam"), ("spread", 3, "beam"),
                ("coverage", 4, "greedy")]
        for event in spans:
            assert event["states"] > 0
            assert event["cache_hits"] + event["cache_misses"] > 0
        assert "reevaluations" not in spans[0]
        assert spans[2]["reevaluations"] >= 0
        assert "sweeps" not in spans[0]
        assert spans[2]["sweeps"] >= 4  # one per member, at the least
        # Per search, not cumulative: the curve's second search counts
        # what a fresh engine scores for that size alone.
        for event in spans[:2]:
            engine = FastEngine(np.array([v.as_array() for v in pool]),
                                "spread", space=BehaviorSpace(),
                                samples=None, n_samples=0, seed=0)
            _, best = tie_sorted(engine.beam(event["size"], 64))[0]
            engine.refine(best)
            assert event["states"] == engine.states


class TestTieStability:
    """On equal scores the search prefers the lexicographically
    smallest index tuple (Figs 20-21 determinism)."""

    def grid_pool(self):
        # The 8 corners of a cube embedded in the 4-d space: every
        # size-2 ensemble of adjacent corners ties exactly, as do many
        # larger subsets — maximal tie pressure.
        corners = [(x, y, z, 0.5) for x in (0.1, 0.9)
                   for y in (0.1, 0.9) for z in (0.1, 0.9)]
        return [BehaviorVector(*c, tag=("a", 1, 2.0)) for c in corners]

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    def test_beam_prefers_smallest_tuple(self, engine, metric):
        """Holds for the engine and (``legacy``) for the oracle it is
        compared against."""
        pool = self.grid_pool()
        samples = BehaviorSpace().sample(500, seed=0)
        if engine == "legacy":
            oracle = Oracle(pool, metric, samples=samples)
            res = oracle.best(2, refine=False)
            top = oracle.top_k(2, k=30)
        else:
            res = best_ensemble(pool, 2, metric, samples=samples,
                                refine=False)
            top = top_k_ensembles(pool, 2, metric, k=30, samples=samples)
        peers = [r for r in top if abs(r.score - res.score) <= 1e-9]
        assert res.indices == min(p.indices for p in peers)

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    def test_engines_agree_under_ties(self, metric):
        pool = self.grid_pool()
        samples = BehaviorSpace().sample(500, seed=0)
        oracle = Oracle(pool, metric, samples=samples)
        for size in (2, 3, 4):
            fast = best_ensemble(pool, size, metric, samples=samples)
            legacy = oracle.best(size)
            assert fast.indices == legacy.indices
            assert fast.score == pytest.approx(legacy.score, abs=1e-9)

    def test_exhaustive_prefers_smallest_tuple(self):
        pool = self.grid_pool()
        exact = exhaustive_best(pool, 2, "spread")
        # All 12 cube edges tie at the edge length; (0, 1) is the
        # lexicographically smallest of them — but the face and body
        # diagonals score higher, so the winner is the smallest tuple
        # among the 4 tying body diagonals: (0, 7).
        assert exact.indices == (0, 7)

    def test_top_k_deterministic(self):
        pool = self.grid_pool()
        a = top_k_ensembles(pool, 3, "spread", k=12)
        b = top_k_ensembles(pool, 3, "spread", k=12)
        assert [r.indices for r in a] == [r.indices for r in b]
        # ties inside the list are ordered by index tuple
        for first, second in zip(a, a[1:]):
            if abs(first.score - second.score) <= 1e-12:
                assert first.indices < second.indices


class TestTopK:
    def test_sorted_unique(self):
        pool = random_pool(20, seed=10)
        top = top_k_ensembles(pool, 4, "spread", k=10)
        scores = [r.score for r in top]
        assert scores == sorted(scores, reverse=True)
        assert len({r.indices for r in top}) == len(top)

    def test_first_equals_best(self):
        pool = random_pool(16, seed=11)
        top = top_k_ensembles(pool, 4, "spread", k=5, beam_width=600)
        best = exhaustive_best(pool, 4, "spread")
        assert top[0].score == pytest.approx(best.score, rel=1e-9)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            top_k_ensembles(random_pool(8), 2, "spread", k=0)


class TestBounds:
    def test_spread_bound_includes_antipodal_pair(self):
        pts = max_spread_points(2)
        assert spread(pts) == pytest.approx(BehaviorSpace().diameter)

    def test_bounds_dominate_random_ensembles(self):
        space = BehaviorSpace()
        samples = space.sample(4000, seed=12)
        ub = UpperBounds.compute([3, 6, 10], samples=samples)
        rng = make_rng(1, "rand-ens")
        for i, size in enumerate(ub.sizes):
            for trial in range(5):
                pts = rng.random((size, 4))
                assert spread(pts) <= ub.spread_bound[i] + 1e-9
                assert coverage(pts, samples=samples) \
                    <= ub.coverage_bound[i] + 1e-9

    def test_coverage_bound_monotone(self):
        samples = BehaviorSpace().sample(4000, seed=13)
        ub = UpperBounds.compute([2, 5, 10, 15], samples=samples)
        assert list(ub.coverage_bound) == sorted(ub.coverage_bound)

    def test_deterministic(self):
        a = max_coverage_points(5, seed=3)
        b = max_coverage_points(5, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            max_spread_points(0)
        with pytest.raises(ValidationError):
            max_coverage_points(-1)


class TestFrequency:
    def test_slot_share_sums_to_one(self):
        pool = random_pool(20, seed=14)
        top = top_k_ensembles(pool, 5, "spread", k=20)
        rep = algorithm_frequencies(top)
        assert sum(rep.slot_share.values()) == pytest.approx(1.0)
        assert all(0 <= p <= 1 for p in rep.presence.values())
        assert rep.n_ensembles == len(top)

    def test_ranked_and_top(self):
        pool = random_pool(20, seed=15)
        top = top_k_ensembles(pool, 5, "spread", k=10)
        rep = algorithm_frequencies(top)
        ranked = rep.ranked()
        assert ranked[0][1] >= ranked[-1][1]
        assert rep.top_algorithms(2) == [name for name, _ in ranked[:2]]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            algorithm_frequencies([])

    def test_rejects_untagged(self):
        from repro.ensemble.ensemble import Ensemble
        from repro.ensemble.search import SearchResult

        e = Ensemble.of([BehaviorVector(0, 0, 0, 0)])
        res = SearchResult(ensemble=e, score=0.0, indices=(0,),
                           metric="spread")
        with pytest.raises(ValidationError):
            algorithm_frequencies([res])


class TestConstrained:
    def test_limit_to_algorithms(self):
        pool = random_pool(12, seed=16)
        kept = limit_to_algorithms(pool, ("a",))
        assert kept and all(v.tag[0] == "a" for v in kept)

    def test_limit_to_algorithms_missing(self):
        with pytest.raises(ValidationError):
            limit_to_algorithms(random_pool(6), ("zz",))

    def test_limit_to_structures(self):
        pool = random_pool(12, seed=17)
        kept = limit_to_structures(pool, [(1, 2.0)])
        assert kept and all(v.tag[1:] == (1, 2.0) for v in kept)

    def test_truncate_trace(self):
        from tests.test_behavior import make_trace

        t = make_trace([(1, 1, 2, 3, 0.5)] * 10)
        short = truncate_trace(t, 4)
        assert short.n_iterations == 4
        assert not short.converged
        assert short.stop_reason == "truncated@4"
        # Constant behavior ⇒ identical mean metrics after truncation.
        from repro.behavior.metrics import compute_metrics

        np.testing.assert_allclose(compute_metrics(short).as_array(),
                                   compute_metrics(t).as_array())

    def test_truncate_noop_when_short(self):
        from tests.test_behavior import make_trace

        t = make_trace([(1, 1, 2, 3, 0.5)] * 3)
        assert truncate_trace(t, 10) is t

    def test_truncate_validation(self):
        from tests.test_behavior import make_trace

        with pytest.raises(ValidationError):
            truncate_trace(make_trace([]), 0)
