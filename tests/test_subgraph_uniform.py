"""Tests for subgraph extraction and the uniform-degree generators."""

import networkx as nx
import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.generators import powerlaw_graph
from repro.generators.uniform import erdos_renyi_graph, regular_graph
from repro.graph.csr import Graph
from repro.graph.subgraph import (
    component_sizes,
    connected_component_labels,
    induced_subgraph,
    largest_component,
)


class TestInducedSubgraph:
    def test_triangle_extraction(self):
        g = Graph.from_edges(5, np.array([0, 0, 1, 3]),
                             np.array([1, 2, 2, 4]))
        sub, mapping = induced_subgraph(g, np.array([0, 1, 2]))
        assert sub.n_vertices == 3
        assert sub.n_edges == 3
        assert mapping.tolist() == [0, 1, 2]

    def test_weights_follow(self):
        g = Graph.from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                             weight=np.array([1.0, 2.0, 3.0]))
        sub, mapping = induced_subgraph(g, np.array([1, 2, 3]))
        assert sorted(sub.edge_weight.tolist()) == [2.0, 3.0]

    def test_validation(self):
        g = Graph.from_edges(3, np.array([0]), np.array([1]))
        with pytest.raises(ValidationError):
            induced_subgraph(g, np.array([], dtype=int))
        with pytest.raises(ValidationError):
            induced_subgraph(g, np.array([7]))

    def test_matches_networkx(self, rng):
        prob = powerlaw_graph(600, 2.5, seed=6)
        g = prob.graph
        pick = rng.choice(g.n_vertices, size=g.n_vertices // 3,
                          replace=False)
        sub, mapping = induced_subgraph(g, pick)
        src, dst = g.edge_endpoints()
        G = nx.Graph()
        G.add_nodes_from(range(g.n_vertices))
        G.add_edges_from(zip(src.tolist(), dst.tolist()))
        expected = G.subgraph(pick.tolist())
        assert sub.n_edges == expected.number_of_edges()


class TestComponents:
    def test_labels_two_components(self):
        g = Graph.from_edges(5, np.array([0, 3]), np.array([1, 4]))
        labels = connected_component_labels(g)
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert len(set(labels.tolist())) == 3  # {0,1}, {2}, {3,4}

    def test_sizes_sorted(self):
        g = Graph.from_edges(6, np.array([0, 1, 4]), np.array([1, 2, 5]))
        assert component_sizes(g).tolist() == [3, 2, 1]

    def test_largest_component_matches_networkx(self):
        prob = powerlaw_graph(500, 2.5, seed=9)
        sub, ids = largest_component(prob.graph)
        src, dst = prob.graph.edge_endpoints()
        G = nx.Graph()
        G.add_nodes_from(range(prob.graph.n_vertices))
        G.add_edges_from(zip(src.tolist(), dst.tolist()))
        giant = max(nx.connected_components(G), key=len)
        assert set(ids.tolist()) == giant
        assert nx.is_connected(G.subgraph(giant))

    def test_directed_connectivity_is_undirected(self):
        # 0 -> 1, 2 -> 1: weakly connected as one component.
        g = Graph.from_edges(3, np.array([0, 2]), np.array([1, 1]),
                             directed=True)
        labels = connected_component_labels(g)
        assert len(set(labels.tolist())) == 1


class TestErdosRenyi:
    def test_edge_count_and_concentrated_degrees(self):
        prob = erdos_renyi_graph(5_000, mean_degree=10, seed=4)
        g = prob.graph
        assert abs(g.n_edges - 5_000) <= 100
        deg = g.degree
        # Binomial concentration: relative std far below a power law's.
        assert deg.std() / deg.mean() < 0.5
        assert abs(deg.mean() - 10) < 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            erdos_renyi_graph(0)
        with pytest.raises(ValidationError):
            erdos_renyi_graph(100, mean_degree=0)

    def test_runs_under_ga_algorithms(self):
        from repro.behavior.run import run_computation

        prob = erdos_renyi_graph(800, seed=2)
        trace = run_computation("cc", prob)
        assert trace.converged


class TestRegular:
    def test_degrees_nearly_uniform(self):
        prob = regular_graph(500, 6, seed=3)
        deg = prob.graph.degree
        # Configuration-model repair drops few edges: ≥ 95% exact.
        assert (deg == 6).mean() > 0.95
        assert deg.max() <= 6

    def test_validation(self):
        with pytest.raises(ValidationError):
            regular_graph(3, 2)
        with pytest.raises(ValidationError):
            regular_graph(10, 0)
        with pytest.raises(ValidationError):
            regular_graph(9, 3)  # odd stub count

    def test_deterministic(self):
        a = regular_graph(100, 4, seed=8)
        b = regular_graph(100, 4, seed=8)
        np.testing.assert_array_equal(a.graph.out_dst, b.graph.out_dst)

    def test_contrast_with_power_law(self):
        """The uniform extreme really is the structural opposite of the
        α sweep: far lower degree variance at matched size."""
        uniform = regular_graph(1_000, 8, seed=1).graph.degree
        heavy = powerlaw_graph(4_000, 2.0, seed=1).graph.degree
        assert uniform.std() < 0.3 * heavy.std()
