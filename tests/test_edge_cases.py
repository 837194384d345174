"""Edge-case coverage for branches not exercised elsewhere."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.behavior.trace import IterationRecord, RunTrace
from repro.experiments.config import Profile
from repro.experiments.results import CACHE_ENV, ResultStore, default_cache_dir


class TestResultStoreDefaults:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_cwd_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert default_cache_dir() == tmp_path / ".repro_cache"

    def test_clear_on_missing_dir(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.clear() == 0


class TestProfileValidation:
    def test_empty_sizes_rejected(self):
        with pytest.raises(ValidationError):
            Profile(name="bad", ga_sizes=(), cf_sizes=(10,),
                    matrix_rows=(5,), grid_sides=(4,), mrf_edges=(10,))


class TestTraceJsonPaths:
    def test_from_json_accepts_path_string(self, tmp_path):
        trace = RunTrace(
            algorithm="t", graph_params={}, domain="ga",
            n_vertices=2, n_edges=1,
            iterations=[IterationRecord(0, 1, 1, 1, 1, 0.0)],
        )
        path = tmp_path / "t.json"
        trace.to_json(path)
        assert RunTrace.from_json(str(path)) == trace

    def test_from_json_accepts_inline_string(self):
        trace = RunTrace(algorithm="t", graph_params={}, domain="ga",
                         n_vertices=2, n_edges=1)
        assert RunTrace.from_json(trace.to_json()) == trace


class TestEngineDirectionErrors:
    def test_both_rejected_on_directed_graph_too(self):
        from repro.engine.engine import SynchronousEngine
        from repro.engine.program import Direction
        from repro.generators.problem import ProblemInstance
        from repro.graph.csr import Graph
        from tests.test_engine import Flood

        class BothWays(Flood):
            gather_dir = Direction.BOTH

        prob = ProblemInstance(
            graph=Graph.from_edges(3, np.array([0]), np.array([1]),
                                   directed=True),
            domain="ga")
        with pytest.raises(ValidationError):
            SynchronousEngine().run(BothWays(), prob)

    def test_async_rejects_both(self):
        from repro.engine.async_engine import AsynchronousEngine
        from repro.engine.program import Direction
        from repro.generators import powerlaw_graph
        from repro.algorithms.registry import create

        prog = create("cc")
        prog.__class__ = type("CCBoth", (type(prog),),
                              {"gather_dir": Direction.BOTH})
        with pytest.raises(ValidationError):
            AsynchronousEngine().run(prog, powerlaw_graph(100, 2.5, seed=1))


class TestEdgeCentricGatherDirection:
    def test_rejects_out_gather(self):
        from repro.engine.edge_centric import EdgeCentricEngine
        from repro.engine.program import Direction
        from repro.generators import powerlaw_graph
        from repro.algorithms.registry import create

        prog = create("sssp")
        prog.__class__ = type("SsspOut", (type(prog),),
                              {"gather_dir": Direction.OUT})
        with pytest.raises(ValidationError):
            EdgeCentricEngine().run(prog, powerlaw_graph(100, 2.5, seed=1))

    def test_rejects_wide_gather(self):
        from repro.engine.edge_centric import EdgeCentricEngine
        from repro.generators import powerlaw_graph
        from repro.algorithms.registry import create

        prog = create("sssp")
        prog.__class__ = type("SsspWide", (type(prog),),
                              {"gather_width": 3})
        with pytest.raises(ValidationError):
            EdgeCentricEngine().run(prog, powerlaw_graph(100, 2.5, seed=1))


class TestRegistryErrors:
    def test_duplicate_registration_rejected(self):
        from repro.algorithms.registry import AlgorithmInfo, register
        from repro.algorithms.analytics.cc import ConnectedComponents

        with pytest.raises(ValidationError):
            register(AlgorithmInfo(name="cc", cls=ConnectedComponents,
                                   domain="ga"))

    def test_unknown_lookup(self):
        from repro.algorithms.registry import info

        with pytest.raises(ValidationError):
            info("quantumrank")

    def test_lazy_names_protocol(self):
        from repro.algorithms.registry import ALGORITHM_NAMES

        assert "pagerank" in ALGORITHM_NAMES
        assert len(ALGORITHM_NAMES) == 14
        assert ALGORITHM_NAMES[0] == "als"
        assert "cc" in list(iter(ALGORITHM_NAMES))


class TestCliCorpusCommand:
    def test_corpus_command(self, capsys, warm_smoke_cache):
        from repro.cli import main

        code = main(["corpus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Behavior corpus [smoke]: 215 runs, 5 failed" in out

    def test_corpus_command_cached_second_call(self, capsys,
                                               warm_smoke_cache):
        from repro.cli import main

        assert main(["corpus"]) == 0
        capsys.readouterr()
        import time

        t0 = time.perf_counter()
        assert main(["corpus"]) == 0
        assert time.perf_counter() - t0 < 30  # cache hit path
        assert "215 runs" in capsys.readouterr().out
