"""Integration tests: build a tiny full corpus and run the whole
ensemble methodology over it (the paper's Section 5 pipeline)."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace
from repro.ensemble.bounds import UpperBounds
from repro.ensemble.constrained import limit_to_algorithms
from repro.ensemble.frequency import algorithm_frequencies
from repro.ensemble.metrics import coverage, spread
from repro.ensemble.search import best_ensemble, top_k_ensembles
from repro.experiments.config import CORPUS_ALGORITHMS, BuildOptions
from repro.experiments.corpus import build_corpus, execute_planned_run
from repro.experiments.results import ResultStore
from tests.conftest import MINI_PROFILE


class TestCorpusShape:
    def test_reproduces_paper_run_counts(self, mini_corpus):
        # 220 planned, 5 AD runs at the largest size fail → 215.
        assert mini_corpus.n_runs == 215
        assert len(mini_corpus.failures) == 5
        assert all(f.algorithm == "diameter" for f in mini_corpus.failures)
        largest = max(MINI_PROFILE.ga_sizes)
        assert all(f.spec.nedges == largest for f in mini_corpus.failures)

    def test_all_algorithms_present(self, mini_corpus):
        assert set(mini_corpus.algorithms()) == set(CORPUS_ALGORITHMS)

    def test_run_counts_per_algorithm(self, mini_corpus):
        for alg in CORPUS_ALGORITHMS:
            expected = 15 if alg == "diameter" else 20
            assert len(mini_corpus.by_algorithm(alg)) == expected

    def test_vectors_normalized_and_tagged(self, mini_corpus):
        vecs = mini_corpus.vectors()
        assert len(vecs) == 215
        mat = np.vstack([v.as_array() for v in vecs])
        assert mat.min() >= 0 and mat.max() <= 1.0
        assert mat.max() == pytest.approx(1.0)  # max normalization
        algs = {v.tag[0] for v in vecs}
        assert algs == set(CORPUS_ALGORITHMS)

    def test_structures(self, mini_corpus):
        structs = mini_corpus.structures()
        assert len(structs) == 4 * 5  # sizes × alphas
        by_struct = mini_corpus.by_structure(*structs[0])
        assert len(by_struct) >= 1

    def test_summary_text(self, mini_corpus):
        text = mini_corpus.summary()
        assert "215 runs" in text
        assert "FAILED diameter" in text


class TestParallelBuild:
    def test_workers_produce_identical_corpus(self, tmp_path, mini_corpus):
        """The process-pool path yields the same runs (order and
        content) as the inline path."""
        from repro.experiments.corpus import build_corpus

        parallel = build_corpus(MINI_PROFILE, use_cache=False, workers=2)
        assert parallel.n_runs == mini_corpus.n_runs
        assert len(parallel.failures) == len(mini_corpus.failures)
        for a, b in zip(parallel.runs, mini_corpus.runs):
            assert a.tag == b.tag
            assert a.trace.to_dict()["iterations"] \
                == b.trace.to_dict()["iterations"]

    def test_workers_share_the_store(self, tmp_path):
        from repro.experiments.config import ExperimentMatrix
        from repro.experiments.corpus import build_corpus

        store = ResultStore(tmp_path)
        first = build_corpus(MINI_PROFILE, store=store, workers=2)
        assert first.n_executed == 220 and first.n_cached == 0
        # Second build hits only the cache — and must agree.
        second = build_corpus(MINI_PROFILE, store=store, workers=1)
        assert second.n_runs == first.n_runs
        assert second.n_executed == 0 and second.n_cached == 220
        assert [r.tag for r in second.runs] == [r.tag for r in first.runs]


class TestCaching:
    def test_store_roundtrip_through_executor(self, tmp_path):
        from repro.experiments.config import ExperimentMatrix

        store = ResultStore(tmp_path)
        matrix = ExperimentMatrix(MINI_PROFILE)
        planned = matrix.runs_for_algorithm("cc")[0]
        first = execute_planned_run(planned, MINI_PROFILE, store)
        assert first.ok
        second = execute_planned_run(planned, MINI_PROFILE, store)
        assert second.ok
        assert second.trace.to_dict() == first.trace.to_dict()

    def test_failure_cached(self, tmp_path):
        from repro.experiments.config import ExperimentMatrix

        store = ResultStore(tmp_path)
        matrix = ExperimentMatrix(MINI_PROFILE)
        ad_runs = matrix.runs_for_algorithm("diameter")
        failing = [p for p in ad_runs
                   if p.spec.nedges == max(MINI_PROFILE.ga_sizes)][0]
        first = execute_planned_run(failing, MINI_PROFILE, store)
        assert not first.ok
        assert first.failure.kind == "memory"
        second = execute_planned_run(failing, MINI_PROFILE, store)
        assert not second.ok and second.failure.kind == "memory"
        assert second.source == "cache"
        # Expected (memory) failures are never re-executed, even under
        # --resume: the budget check is deterministic.
        resumed = execute_planned_run(failing, MINI_PROFILE, store,
                                      BuildOptions(resume=True))
        assert resumed.source == "cache"


    def test_options_may_not_spell_the_telemetry_fields(self, tmp_path):
        """The build door resolves obs_level / obs_dir / run_id from its
        obs / obs_dir requests; an options object that sets them is
        refused before any cell runs."""
        for options in (BuildOptions(obs_level="full"),
                        BuildOptions(obs_dir=tmp_path / "obs"),
                        BuildOptions(run_id="r-1")):
            with pytest.raises(ValidationError, match="obs_dir"):
                build_corpus(MINI_PROFILE, store=ResultStore(tmp_path),
                             options=options)
        assert list(tmp_path.rglob("*.json")) == []


class TestEnsemblePipeline:
    """The paper's Section 5 findings, asserted qualitatively on the
    mini corpus (shape, not absolute values)."""

    def test_unrestricted_beats_single_algorithm_spread(self, mini_corpus):
        vecs = mini_corpus.vectors()
        unrestricted = best_ensemble(vecs, 8, "spread").score
        single_scores = []
        for alg in CORPUS_ALGORITHMS:
            sub = [v for v in vecs if v.tag[0] == alg]
            if len(sub) >= 8:
                single_scores.append(best_ensemble(sub, 8, "spread").score)
        assert unrestricted >= max(single_scores)
        # Paper finding (3): the gain is large (≥ 2× here vs ~3× at
        # cluster scale).
        assert unrestricted > 1.5 * np.median(single_scores)

    def test_unrestricted_beats_single_algorithm_coverage(self, mini_corpus):
        space = BehaviorSpace()
        samples = space.sample(MINI_PROFILE.coverage_samples, seed=0)
        vecs = mini_corpus.vectors()
        unrestricted = best_ensemble(vecs, 8, "coverage",
                                     samples=samples).score
        single = []
        for alg in CORPUS_ALGORITHMS:
            sub = [v for v in vecs if v.tag[0] == alg]
            if len(sub) >= 8:
                single.append(best_ensemble(sub, 8, "coverage",
                                            samples=samples).score)
        assert unrestricted >= max(single)

    def test_upper_bounds_dominate_everything(self, mini_corpus):
        space = BehaviorSpace()
        samples = space.sample(MINI_PROFILE.coverage_samples, seed=0)
        vecs = mini_corpus.vectors()
        ub = UpperBounds.compute([5, 10], samples=samples)
        for i, size in enumerate(ub.sizes):
            best_s = best_ensemble(vecs, size, "spread").score
            best_c = best_ensemble(vecs, size, "coverage",
                                   samples=samples).score
            assert best_s <= ub.spread_bound[i] + 1e-9
            assert best_c <= ub.coverage_bound[i] + 1e-9

    def test_top100_frequency_analysis(self, mini_corpus):
        vecs = mini_corpus.vectors()
        top = top_k_ensembles(vecs, 6, "spread", k=50)
        rep = algorithm_frequencies(top)
        assert sum(rep.slot_share.values()) == pytest.approx(1.0)
        # Some algorithms contribute much more than others (paper §5.5):
        # the best-contributing algorithm takes far more than a fair
        # share of slots, and several of the 11 never appear at all.
        shares = rep.ranked()
        assert shares[0][1] > 2.0 / len(CORPUS_ALGORITHMS)
        assert len(shares) < len(CORPUS_ALGORITHMS)

    def test_limited_algorithms_keep_most_spread(self, mini_corpus):
        vecs = mini_corpus.vectors()
        full = best_ensemble(vecs, 6, "spread")
        rep = algorithm_frequencies(
            top_k_ensembles(vecs, 6, "spread", k=50))
        top3 = tuple(rep.top_algorithms(3))
        limited_pool = limit_to_algorithms(vecs, top3)
        limited = best_ensemble(limited_pool, 6, "spread")
        # Paper finding (5): the 3-algorithm suite keeps a high spread —
        # at least matching the best any *single* algorithm achieves.
        best_single = max(
            best_ensemble([v for v in vecs if v.tag[0] == alg], 6,
                          "spread").score
            for alg in CORPUS_ALGORITHMS
            if len([v for v in vecs if v.tag[0] == alg]) >= 6)
        assert limited.score >= 0.95 * best_single
        assert limited.score <= full.score + 1e-9

    def test_scores_recompute(self, mini_corpus):
        vecs = mini_corpus.vectors()
        res = best_ensemble(vecs, 5, "spread")
        assert res.score == pytest.approx(spread(res.ensemble), rel=1e-9)
