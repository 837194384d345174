"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.generators import (
    bipartite_rating_graph,
    grid_problem,
    matrix_problem,
    mrf_problem,
    powerlaw_graph,
)
from repro.generators.bipartite import RATING_RANGE
from repro.generators.mrf import PAPER_MRF_EDGE_COUNTS
from repro.graph.properties import fit_power_law_alpha


class TestPowerlaw:
    @pytest.mark.parametrize("nedges", [500, 5_000, 20_000])
    def test_edge_count_within_tolerance(self, nedges):
        prob = powerlaw_graph(nedges, 2.5, seed=1)
        assert abs(prob.graph.n_edges - nedges) <= 0.02 * nedges

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
    def test_alpha_parameter_respected(self, alpha):
        prob = powerlaw_graph(20_000, alpha, seed=1)
        fitted = fit_power_law_alpha(prob.graph.degree, k_min=2)
        # Generator tolerance: fitted exponent tracks the request.
        assert fitted == pytest.approx(alpha, abs=0.5)

    def test_deterministic(self):
        a = powerlaw_graph(1_000, 2.5, seed=42)
        b = powerlaw_graph(1_000, 2.5, seed=42)
        np.testing.assert_array_equal(a.graph.out_dst, b.graph.out_dst)

    def test_seed_changes_graph(self):
        a = powerlaw_graph(1_000, 2.5, seed=1)
        b = powerlaw_graph(1_000, 2.5, seed=2)
        assert (a.graph.n_vertices != b.graph.n_vertices
                or not np.array_equal(a.graph.out_dst, b.graph.out_dst))

    def test_no_self_loops_or_duplicates(self):
        prob = powerlaw_graph(2_000, 2.0, seed=5)
        src, dst = prob.graph.edge_endpoints()
        assert np.all(src != dst)
        keys = (np.minimum(src, dst) * prob.graph.n_vertices
                + np.maximum(src, dst))
        assert np.unique(keys).size == keys.size

    def test_with_points(self):
        prob = powerlaw_graph(500, 2.5, seed=1, with_points=True)
        assert prob.domain == "clustering"
        pts = prob.inputs["points"]
        assert pts.shape == (prob.graph.n_vertices, 2)

    def test_with_weights(self):
        prob = powerlaw_graph(500, 2.5, seed=1, with_weights=True)
        assert prob.graph.edge_weight is not None
        assert np.all(prob.graph.edge_weight > 0)

    def test_directed_variant(self):
        prob = powerlaw_graph(500, 2.5, seed=1, directed=True)
        assert prob.graph.directed

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            powerlaw_graph(0, 2.5)
        with pytest.raises(ValidationError):
            powerlaw_graph(100, 0.9)

    def test_label(self):
        prob = powerlaw_graph(500, 2.5, seed=1)
        assert "nedges=500" in prob.label


class TestBipartite:
    def test_strictly_bipartite(self, cf_problem):
        g = cf_problem.graph
        is_user = cf_problem.inputs["is_user"]
        src, dst = g.edge_endpoints()
        assert np.all(is_user[src] != is_user[dst])

    def test_equal_sides(self, cf_problem):
        assert cf_problem.inputs["n_users"] == cf_problem.inputs["n_items"]

    def test_ratings_in_range(self, cf_problem):
        w = cf_problem.graph.edge_weight
        assert w is not None
        assert w.min() >= RATING_RANGE[0]
        assert w.max() <= RATING_RANGE[1]

    def test_edge_count(self):
        prob = bipartite_rating_graph(3_000, 2.5, seed=2)
        assert abs(prob.graph.n_edges - 3_000) <= 60

    def test_deterministic(self):
        a = bipartite_rating_graph(500, 2.5, seed=9)
        b = bipartite_rating_graph(500, 2.5, seed=9)
        np.testing.assert_allclose(a.graph.edge_weight, b.graph.edge_weight)

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            bipartite_rating_graph(0, 2.5)
        with pytest.raises(ValidationError):
            bipartite_rating_graph(100, 1.0)


class TestMatrix:
    def test_uniform_row_degree(self, matrix_problem_small):
        g = matrix_problem_small.graph
        # Every row gathers the same number of off-diagonal entries.
        assert np.all(g.in_degree == g.in_degree[0])

    def test_diagonally_dominant(self, matrix_problem_small):
        g = matrix_problem_small.graph
        diag = matrix_problem_small.inputs["diag"]
        src, dst = g.edge_endpoints()
        offdiag_sum = np.zeros(g.n_vertices)
        np.add.at(offdiag_sum, dst, np.abs(g.edge_weight))
        assert np.all(diag > offdiag_sum)

    def test_b_equals_A_x_true(self, matrix_problem_small):
        g = matrix_problem_small.graph
        x = matrix_problem_small.inputs["x_true"]
        b = matrix_problem_small.inputs["b"]
        diag = matrix_problem_small.inputs["diag"]
        src, dst = g.edge_endpoints()
        recomputed = diag * x
        np.add.at(recomputed, dst, g.edge_weight * x[src])
        np.testing.assert_allclose(recomputed, b, rtol=1e-10)

    def test_no_diagonal_edges(self, matrix_problem_small):
        src, dst = matrix_problem_small.graph.edge_endpoints()
        assert np.all(src != dst)

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            matrix_problem(1)
        with pytest.raises(ValidationError):
            matrix_problem(10, row_degree=10)

    def test_deterministic(self):
        a = matrix_problem(30, seed=4)
        b = matrix_problem(30, seed=4)
        np.testing.assert_allclose(a.inputs["b"], b.inputs["b"])


class TestGrid:
    def test_lattice_structure(self, grid_problem_small):
        g = grid_problem_small.graph
        side = grid_problem_small.inputs["side"]
        assert g.n_vertices == side * side
        assert g.n_edges == 2 * side * (side - 1)
        deg = g.degree
        assert deg.min() == 2 and deg.max() == 4

    def test_priors_are_distributions(self, grid_problem_small):
        priors = grid_problem_small.inputs["priors"]
        np.testing.assert_allclose(priors.sum(axis=1), 1.0, rtol=1e-9)
        assert priors.min() > 0

    def test_truth_labels_valid(self, grid_problem_small):
        truth = grid_problem_small.inputs["truth"]
        n_states = grid_problem_small.inputs["n_states"]
        assert truth.min() >= 0 and truth.max() < n_states

    def test_noise_rate_roughly_respected(self):
        prob = grid_problem(40, seed=6)
        observed = np.argmax(prob.inputs["priors"], axis=1)
        acc = (observed == prob.inputs["truth"]).mean()
        # NOISE_RATE=0.2 but a flipped label can land on the truth.
        assert 0.72 <= acc <= 0.92

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            grid_problem(1)
        with pytest.raises(ValidationError):
            grid_problem(10, n_states=1)


class TestMRF:
    @pytest.mark.parametrize("nedges", PAPER_MRF_EDGE_COUNTS)
    def test_exact_edge_counts(self, nedges):
        prob = mrf_problem(nedges, seed=1)
        assert prob.graph.n_edges == nedges
        assert prob.inputs["mrf"].n_pairwise == nedges

    def test_tables_align_with_graph_eids(self, mrf_problem_small):
        mrf = mrf_problem_small.inputs["mrf"]
        g = mrf_problem_small.graph
        src, dst = g.edge_endpoints()
        # eid k's endpoints must be pair_vars[k] (canonical order).
        np.testing.assert_array_equal(np.minimum(src, dst),
                                      mrf.pair_vars[:, 0])
        np.testing.assert_array_equal(np.maximum(src, dst),
                                      mrf.pair_vars[:, 1])

    def test_deterministic(self):
        a = mrf_problem(100, seed=2)
        b = mrf_problem(100, seed=2)
        np.testing.assert_allclose(
            np.stack(a.inputs["mrf"].pair_tables),
            np.stack(b.inputs["mrf"].pair_tables))

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            mrf_problem(2)
        with pytest.raises(ValidationError):
            mrf_problem(100, n_states=1)
