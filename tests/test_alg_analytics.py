"""Correctness tests for the Graph Analytics vertex programs,
validated against networkx oracles and structural expectations."""

import networkx as nx
import numpy as np
import pytest

from repro.engine.engine import SynchronousEngine
from repro.engine.program import VertexProgram  # noqa: F401 (docs)
from repro.experiments.config import GraphSpec
from repro.generators.problem import ProblemInstance
from repro.graph.csr import Graph


def as_networkx(graph: Graph) -> "nx.Graph":
    src, dst = graph.edge_endpoints()
    G = nx.Graph()
    G.add_nodes_from(range(graph.n_vertices))
    G.add_edges_from(zip(src.tolist(), dst.tolist()))
    return G


def run_program(name, problem, **kw):
    """Run and return (trace, program) so tests can inspect final state."""
    from repro.algorithms.registry import create
    from repro.behavior.run import build_engine_options

    program = create(name, **kw.pop("params", {}))
    engine = SynchronousEngine(
        build_engine_options(name, kw.pop("options", None)))
    trace = engine.run(program, problem)
    return trace, program


@pytest.fixture(scope="module")
def ga():
    return GraphSpec.ga(nedges=1500, alpha=2.5, seed=8).generate()


class TestConnectedComponents:
    def test_matches_networkx(self, ga):
        trace, prog = run_program("cc", ga)
        G = as_networkx(ga.graph)
        assert (trace.result["n_components"]
                == nx.number_connected_components(G))
        # Same-component vertices share labels; distinct components differ.
        labels = prog.component.astype(int)
        for comp in nx.connected_components(G):
            comp = list(comp)
            assert len(set(labels[comp])) == 1
        assert len(set(labels.tolist())) == trace.result["n_components"]

    def test_label_is_component_minimum(self, ga):
        _trace, prog = run_program("cc", ga)
        G = as_networkx(ga.graph)
        labels = prog.component.astype(int)
        for comp in nx.connected_components(G):
            assert labels[next(iter(comp))] == min(comp)

    def test_active_fraction_starts_full_then_drains(self, ga):
        trace, _ = run_program("cc", ga)
        af = trace.active_fraction()
        assert af[0] == 1.0
        assert af[-1] < af[0]


class TestKCore:
    def test_matches_networkx_core_number(self):
        prob = GraphSpec.ga(nedges=600, alpha=2.2, seed=5).generate()
        _trace, prog = run_program("kcore", prob)
        G = as_networkx(prob.graph)
        expected = nx.core_number(G)
        got = prog.core
        for v, k in expected.items():
            assert got[v] == k, f"core number of {v}"

    def test_everything_peeled(self, ga):
        trace, prog = run_program("kcore", ga)
        assert not prog.alive.any()
        assert trace.converged

    def test_max_core_in_result(self, ga):
        trace, prog = run_program("kcore", ga)
        assert trace.result["max_core"] == int(prog.core.max())


class TestTriangleCounting:
    def test_matches_networkx(self, ga):
        trace, prog = run_program("triangle", ga)
        G = as_networkx(ga.graph)
        expected = sum(nx.triangles(G).values()) / 3
        assert trace.result["total_triangles"] == pytest.approx(expected)

    def test_per_vertex_counts(self):
        prob = GraphSpec.ga(nedges=400, alpha=2.0, seed=6).generate()
        _trace, prog = run_program("triangle", prob)
        G = as_networkx(prob.graph)
        expected = nx.triangles(G)
        for v, t in expected.items():
            assert prog.counts[v] == pytest.approx(t), f"triangles at {v}"

    def test_three_iterations(self, ga):
        trace, _ = run_program("triangle", ga)
        assert trace.n_iterations == 3

    def test_known_triangle(self):
        g = Graph.from_edges(4, np.array([0, 0, 1, 2]),
                             np.array([1, 2, 2, 3]))
        prob = ProblemInstance(graph=g, domain="ga")
        trace, prog = run_program("triangle", prob)
        assert trace.result["total_triangles"] == 1.0
        assert prog.counts[3] == 0


class TestSSSP:
    def test_matches_networkx_bfs(self, ga):
        trace, prog = run_program("sssp", ga)
        G = as_networkx(ga.graph)
        src = trace.result["source"]
        expected = nx.single_source_shortest_path_length(G, src)
        for v in range(ga.graph.n_vertices):
            if v in expected:
                assert prog.dist[v] == expected[v], f"dist to {v}"
            else:
                assert np.isinf(prog.dist[v])

    def test_explicit_source(self, ga):
        trace, prog = run_program("sssp", ga, params={"source": 3})
        assert trace.result["source"] == 3
        assert prog.dist[3] == 0

    def test_active_fraction_grows_from_one_vertex(self, ga):
        trace, _ = run_program("sssp", ga)
        af = trace.active_fraction()
        assert af[0] == pytest.approx(1.0 / ga.graph.n_vertices)
        assert af.max() > af[0] * 10  # rapid growth (paper Section 1)

    def test_bad_source_rejected(self, ga):
        with pytest.raises(ValueError):
            run_program("sssp", ga, params={"source": 10**9})


class TestPageRank:
    def test_ranking_matches_networkx(self, ga):
        _trace, prog = run_program("pagerank", ga,
                                   params={"tol": 1e-6})
        G = as_networkx(ga.graph)
        expected = nx.pagerank(G, alpha=0.85, tol=1e-10)
        ours = prog.rank / prog.rank.sum()
        theirs = np.array([expected[v] for v in range(ga.graph.n_vertices)])
        # Tight numerical agreement after normalization.
        corr = np.corrcoef(ours, theirs)[0, 1]
        assert corr > 0.999
        # Top-10 sets agree.
        assert (set(np.argsort(ours)[-10:].tolist())
                == set(np.argsort(theirs)[-10:].tolist()))

    def test_active_fraction_decays(self, ga):
        trace, _ = run_program("pagerank", ga)
        af = trace.active_fraction()
        assert af[0] == 1.0
        assert af[-1] < 0.5
        # Gradual decay overall (signals may re-activate a few vertices,
        # so the series need not be strictly monotone).
        half = af.size // 2
        assert af[half:].mean() < af[:half].mean()

    def test_param_validation(self):
        from repro.algorithms.registry import create
        with pytest.raises(ValueError):
            create("pagerank", damping=1.5)
        with pytest.raises(ValueError):
            create("pagerank", tol=0)


class TestApproximateDiameter:
    def test_path_graph_diameter(self):
        n = 24
        g = Graph.from_edges(n, np.arange(n - 1), np.arange(1, n))
        prob = ProblemInstance(graph=g, domain="ga")
        trace, _ = run_program("diameter", prob,
                               params={"n_hashes": 32})
        # FM sketches need exactly diameter hops to saturate the path.
        assert trace.result["diameter_estimate"] == pytest.approx(n - 1, abs=2)

    def test_estimate_close_to_true_diameter(self, ga):
        trace, _ = run_program("diameter", ga, params={"n_hashes": 32})
        G = as_networkx(ga.graph)
        giant = G.subgraph(max(nx.connected_components(G), key=len))
        true_d = nx.diameter(giant)
        est = trace.result["diameter_estimate"]
        # FM-sketch growth plateaus at the *effective* diameter: at most
        # the true diameter (plus sketch noise), and not wildly below.
        assert est <= true_d + 2
        assert est >= 0.5 * true_d

    def test_always_fully_active(self, ga):
        trace, _ = run_program("diameter", ga)
        np.testing.assert_allclose(trace.active_fraction(), 1.0)

    def test_param_validation(self):
        from repro.algorithms.registry import create
        with pytest.raises(ValueError):
            create("diameter", n_hashes=0)
