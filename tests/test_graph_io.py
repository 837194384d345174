"""Tests for edge-list and UAI file I/O."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.generators import powerlaw_graph
from repro.graph.csr import Graph
from repro.graph.io import (
    PairwiseMRF,
    read_edge_list,
    read_uai,
    write_edge_list,
    write_uai,
)


class TestEdgeList:
    def test_roundtrip_unweighted(self, tmp_path):
        g = powerlaw_graph(300, 2.5, seed=4).graph
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.n_vertices == g.n_vertices
        assert g2.n_edges == g.n_edges
        assert not g2.directed
        np.testing.assert_array_equal(g.degree, g2.degree)

    def test_roundtrip_weighted_directed(self, tmp_path):
        g = Graph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]),
            weight=np.array([0.5, -2.0]), directed=True,
        )
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.directed
        assert g2.n_edges == 2
        assert sorted(g2.edge_weight.tolist()) == [-2.0, 0.5]

    def test_read_without_header(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.n_vertices == 3
        assert g.n_edges == 2

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(ValidationError):
            read_edge_list(path)

    def test_rejects_mixed_weighting(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("0 1\n1 2 0.5\n")
        with pytest.raises(ValidationError):
            read_edge_list(path)


class TestUAI:
    def test_roundtrip_generated_mrf(self, tmp_path, mrf_problem_small):
        mrf = mrf_problem_small.inputs["mrf"]
        path = tmp_path / "net.uai"
        write_uai(mrf, path)
        back = read_uai(path)
        assert back.n_variables == mrf.n_variables
        assert back.n_pairwise == mrf.n_pairwise
        np.testing.assert_array_equal(back.cardinalities, mrf.cardinalities)
        np.testing.assert_array_equal(back.pair_vars, mrf.pair_vars)
        for a, b in zip(back.pair_tables, mrf.pair_tables):
            np.testing.assert_allclose(a, b, rtol=1e-8)
        for a, b in zip(back.unary, mrf.unary):
            np.testing.assert_allclose(a, b, rtol=1e-8)

    def test_to_graph_matches_pairs(self, mrf_problem_small):
        mrf = mrf_problem_small.inputs["mrf"]
        g = mrf.to_graph()
        assert g.n_edges == mrf.n_pairwise
        assert g.n_vertices == mrf.n_variables

    def test_rejects_higher_order(self, tmp_path):
        path = tmp_path / "ho.uai"
        path.write_text("MARKOV\n3\n2 2 2\n1\n3 0 1 2\n8\n" +
                        " ".join(["0.1"] * 8) + "\n")
        with pytest.raises(ValidationError):
            read_uai(path)

    def test_rejects_non_markov(self, tmp_path):
        path = tmp_path / "b.uai"
        path.write_text("BAYES\n1\n2\n1\n1 0\n2\n0.5 0.5\n")
        with pytest.raises(ValidationError):
            read_uai(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "t.uai"
        path.write_text("MARKOV\n2\n2 2\n")
        with pytest.raises(ValidationError):
            read_uai(path)

    def test_validate_catches_bad_table(self):
        mrf = PairwiseMRF(
            cardinalities=np.array([2, 2]),
            unary=[np.zeros(2), np.zeros(3)],  # wrong shape
            pair_vars=np.array([[0, 1]]),
            pair_tables=[np.zeros((2, 2))],
        )
        with pytest.raises(ValidationError):
            mrf.validate()

    def test_missing_unary_filled(self, tmp_path):
        # A UAI file with only the pairwise factor still loads, with
        # zero unary potentials synthesized.
        path = tmp_path / "p.uai"
        path.write_text("MARKOV\n2\n2 2\n1\n2 0 1\n4\n1 2 3 4\n")
        mrf = read_uai(path)
        assert np.all(mrf.unary[0] == 0)
        assert mrf.pair_tables[0].tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestTruncationHardening:
    """A partially-copied input must fail loudly, not load as a
    silently smaller graph."""

    def test_truncated_edge_list_detected(self, tmp_path):
        g = powerlaw_graph(300, 2.5, seed=4).graph
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="truncated"):
            read_edge_list(path)

    def test_edge_list_header_edge_count_enforced(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# repro edge list: undirected n_vertices=3 "
                        "n_edges=3\n0 1\n1 2\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="n_edges=3"):
            read_edge_list(path)

    def test_edge_list_out_of_range_vertex_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 7\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="outside"):
            read_edge_list(path, n_vertices=3)

    def test_edge_list_header_vertex_count_enforced(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# repro edge list: undirected n_vertices=3\n"
                        "0 1\n1 9\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="outside"):
            read_edge_list(path)

    def test_truncated_uai_tables_detected(self, tmp_path, mrf_problem_small):
        mrf = mrf_problem_small.inputs["mrf"]
        path = tmp_path / "m.uai"
        write_uai(mrf, path)
        tokens = path.read_text(encoding="utf-8").split()
        path.write_text(" ".join(tokens[: len(tokens) - 5]),
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="truncated"):
            read_uai(path)

    def test_uai_trailing_garbage_detected(self, tmp_path,
                                           mrf_problem_small):
        mrf = mrf_problem_small.inputs["mrf"]
        path = tmp_path / "m.uai"
        write_uai(mrf, path)
        path.write_text(path.read_text(encoding="utf-8") + "\n0.5 0.5\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="trailing"):
            read_uai(path)

    def test_uai_scope_out_of_range_detected(self, tmp_path):
        path = tmp_path / "m.uai"
        path.write_text("MARKOV\n2\n2 2\n1\n2 0 5\n4\n1 1 1 1\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="scope"):
            read_uai(path)
