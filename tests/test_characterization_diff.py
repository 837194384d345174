"""Tests for corpus characterization and trace diffing."""

import pytest

from repro.behavior.diff import diff_traces
from repro.behavior.run import run_computation
from repro.behavior.shapes import ActivityShape
from repro.experiments.characterization import characterize_corpus
from repro.experiments.config import GraphSpec
from tests.engine_oracle import run_reference
from tests.test_behavior import make_trace


class TestCharacterizeCorpus:
    def test_structure(self, mini_corpus):
        chz = characterize_corpus(mini_corpus)
        assert chz.n_runs == 215
        assert chz.n_failures == 5
        assert len(chz.algorithms) == 11
        assert set(chz.dimension_ranges) == {"updt", "work", "eread", "msg"}

    def test_shapes_match_paper_vocabulary(self, mini_corpus):
        chz = characterize_corpus(mini_corpus)
        by_name = {a.algorithm: a for a in chz.algorithms}
        assert by_name["diameter"].shape == ActivityShape.ALWAYS_ACTIVE
        assert by_name["kmeans"].shape == ActivityShape.ALWAYS_ACTIVE
        assert by_name["sssp"].shape in (ActivityShape.GROW_PEAK_DRAIN,
                                         ActivityShape.BURSTY)

    def test_fold_ranges_positive(self, mini_corpus):
        chz = characterize_corpus(mini_corpus)
        for metric, (lo, hi, fold) in chz.dimension_ranges.items():
            assert 0 <= lo <= hi
            assert fold >= 1.0

    def test_report_renders(self, mini_corpus):
        text = characterize_corpus(mini_corpus).report()
        assert "Corpus characterization" in text
        assert "activity shape" in text
        assert "fold range" in text
        assert "sssp" in text

    def test_iteration_ranges(self, mini_corpus):
        chz = characterize_corpus(mini_corpus)
        for a in chz.algorithms:
            lo, hi = a.iteration_range
            assert 1 <= lo <= hi


class TestDiffTraces:
    def test_identical(self):
        t = make_trace([(5, 5, 10, 3, 0.5)] * 3)
        diff = diff_traces(t, t)
        assert diff.identical
        assert diff.counters_conserved
        assert "identical" in diff.summary()

    def test_counter_mismatch_located(self):
        a = make_trace([(5, 5, 10, 3, 0.5), (4, 4, 8, 2, 0.25)])
        b = make_trace([(5, 5, 10, 3, 0.5), (4, 4, 8, 7, 0.25)])
        diff = diff_traces(a, b)
        assert not diff.identical
        assert diff.mismatches == ((1, "messages", 2, 7),)
        assert "iter 1: messages" in diff.summary()

    def test_work_tolerance(self):
        a = make_trace([(1, 1, 1, 1, 1.0)])
        b = make_trace([(1, 1, 1, 1, 1.5)])
        diff = diff_traces(a, b)
        assert diff.counters_conserved
        assert not diff.identical
        assert diff.max_work_rel_diff == pytest.approx(0.5 / 1.5)

    def test_length_mismatch(self):
        a = make_trace([(1, 1, 1, 1, 1.0)] * 3)
        b = make_trace([(1, 1, 1, 1, 1.0)] * 5)
        diff = diff_traces(a, b)
        assert diff.counters_conserved  # common prefix matches
        assert not diff.identical
        assert diff.n_iterations == (3, 5)

    def test_on_real_engine_modes(self):
        spec = GraphSpec.ga(nedges=400, alpha=2.5, seed=12)
        a = run_computation("cc", spec)
        b = run_reference("cc", spec)
        assert diff_traces(a, b).identical

    def test_summary_truncates(self):
        rows_a = [(i, 1, 1, 1, 0.0) for i in range(30)]
        rows_b = [(i, 1, 1, 2, 0.0) for i in range(30)]
        a = make_trace(rows_a)
        b = make_trace(rows_b)
        diff = diff_traces(a, b)
        assert len(diff.mismatches) == 30
        assert "more" in diff.summary()


class TestCLICharacterizeCorpus:
    def test_command(self, capsys, warm_smoke_cache):
        from repro.cli import main

        code = main(["characterize-corpus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Corpus characterization [smoke]" in out
