"""Tests for the synthetic workload generators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import GraphConstructionError, ValidationError
from repro.generators import (
    bipartite_rating_graph,
    erdos_renyi_graph,
    grid_problem,
    matrix_problem,
    mrf_problem,
    pairs,
    powerlaw_graph,
    uniform,
)
from repro.generators.bipartite import RATING_RANGE
from repro.generators.mrf import PAPER_MRF_EDGE_COUNTS
from repro.generators.pairs import distinct_pairs
from repro.graph.properties import fit_power_law_alpha
from tests import graph_fingerprints


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

    def test_chords_the_lattice_has_no_room_for_are_refused(self):
        """A 2 × 2 lattice has two non-lattice pairs, its diagonals: 6
        edges use both, 7 cannot exist (the scalar chord loop this
        replaced never returned)."""
        mrf = mrf_problem(6, seed=1).inputs["mrf"]
        assert sorted(map(tuple, mrf.pair_vars[4:].tolist())) == \
            [(0, 3), (1, 2)]
        with pytest.raises(GraphConstructionError):
            mrf_problem(7, seed=1)


# ----------------------------------------------------------------------
# The one edge-sampling loop
# ----------------------------------------------------------------------
def counting(draw):
    """``draw`` plus the list of batch sizes it was asked for."""
    batches = []

    def counted(batch):
        batches.append(batch)
        return draw(batch)
    return counted, batches


def uniform_draw(seed, n):
    """Canonical loop-free pairs over ``n`` vertices, ER style."""
    rng = np.random.default_rng(seed)

    def draw(batch):
        u = rng.integers(0, n, size=batch)
        v = rng.integers(0, n, size=batch)
        keep = u != v
        return np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    return draw


def set_loop(draw, need, width, oversample=1.25):
    """The redraw loop as every generator used to spell it: a Python
    ``set`` of accepted keys, ``np.unique`` for the in-batch dedup."""
    seen, us, vs = set(), [], []
    for _ in range(pairs.MAX_REDRAW_ROUNDS):
        missing = need - len(seen)
        if missing <= 0:
            break
        u, v = draw(max(1024, int(missing * oversample)))
        key = u * width + v
        first = np.sort(np.unique(key, return_index=True)[1])
        fresh = [i for i in first.tolist() if int(key[i]) not in seen]
        fresh = fresh[:missing]
        seen.update(key[fresh].tolist())
        us.append(u[fresh])
        vs.append(v[fresh])
    return np.concatenate(us), np.concatenate(vs)


class TestDistinctPairs:
    def test_one_round_when_the_first_batch_suffices(self):
        draw, batches = counting(uniform_draw(3, 500))
        u, v = distinct_pairs(draw, 2_000, 500)
        assert batches == [2_500]
        assert u.size == 2_000 and np.all(u < v)
        assert np.unique(u * 500 + v).size == 2_000

    def test_small_targets_draw_the_minimum_batch(self):
        draw, batches = counting(uniform_draw(3, 500))
        distinct_pairs(draw, 5, 500)
        assert batches == [1024]

    @given(st.integers(0, 2**31 - 1), st.integers(40, 70),
           st.sampled_from([1.0, 1.2, 1.25]))
    @settings(max_examples=30, deadline=None)
    def test_redraw_rounds_match_the_set_loop(self, seed, n, oversample):
        """Dense targets (most of the ``n (n - 1) / 2`` pairs) need
        several rounds; later rounds must drop what earlier ones kept
        and keep first-drawn order — the searchsorted test against the
        set it replaced."""
        need = int(0.9 * n * (n - 1) / 2)
        draw, batches = counting(uniform_draw(seed, n))
        got = distinct_pairs(draw, need, n, oversample=oversample)
        want = set_loop(uniform_draw(seed, n), need, n, oversample)
        assert len(batches) >= 2
        assert batches[0] == max(1024, int(need * oversample))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert got[0].size == need

    def test_unreachable_target_raises_after_the_round_cap(self):
        draw, batches = counting(uniform_draw(1, 4))  # 6 pairs exist
        with pytest.raises(GraphConstructionError, match="got 6"):
            distinct_pairs(draw, 7, 4)
        assert len(batches) == pairs.MAX_REDRAW_ROUNDS

    def test_a_shortfall_inside_the_tolerance_is_returned(self):
        draw, _ = counting(uniform_draw(1, 15))  # 105 pairs exist
        u, v = distinct_pairs(draw, 107, 15)
        assert u.size == 105 >= (1 - pairs.EDGE_TOLERANCE) * 107
        with pytest.raises(GraphConstructionError):
            distinct_pairs(uniform_draw(1, 15), 108, 15)

    def test_nothing_needed_draws_nothing(self):
        draw, batches = counting(uniform_draw(1, 4))
        u, v = distinct_pairs(draw, 0, 4)
        assert batches == [] and u.size == v.size == 0
        assert u.dtype == np.int64

    def test_an_empty_first_batch_is_survived(self):
        rng = np.random.default_rng(0)
        calls = []

        def draw(batch):
            calls.append(batch)
            if len(calls) == 1:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            return np.zeros(batch, np.int64), rng.integers(0, 9, size=batch)
        u, v = distinct_pairs(draw, 9, 9)
        assert sorted(v.tolist()) == list(range(9)) and len(calls) == 2


# ----------------------------------------------------------------------
# Golden construction: every family's bytes, as the parent built them
# ----------------------------------------------------------------------
class TestGoldenConstruction:
    """``tests/data/graph_fingerprints.json`` was written by
    ``tests/graph_fingerprints.py`` under the ``PYTHONPATH`` of the
    commit before graph construction was restated (two lexsorts, the
    per-generator set loops): same RNG streams, same edges in the same
    order, same eids — or these digests move."""

    GOLDEN = json.loads(graph_fingerprints.GOLDEN_PATH.read_text())

    def test_the_golden_file_covers_the_case_list(self):
        assert sorted(self.GOLDEN) == sorted(
            case for case, _ in graph_fingerprints.cases())
        assert len(graph_fingerprints.SEEDS) == 3
        assert all(len(sizes) >= 3
                   for _, sizes in graph_fingerprints.FAMILIES.values())

    @pytest.mark.parametrize("family", sorted(graph_fingerprints.FAMILIES))
    def test_every_graph_is_byte_identical_to_the_parents(self, family):
        ran = 0
        for case, build in graph_fingerprints.cases():
            if case.startswith(family + "/"):
                assert graph_fingerprints.fingerprint(build()) == \
                    self.GOLDEN[case], case
                ran += 1
        assert ran >= 9

    def test_the_golden_sizes_reach_the_redraw_rounds(self, monkeypatch):
        """The dense Erdős–Rényi sizes are in the file because they
        redraw: 2+ rounds each, and (20000, 200) all of them."""
        rounds = []

        def spy(draw, need, width, **kwargs):
            counted, batches = counting(draw)
            rounds.append(batches)
            return distinct_pairs(counted, need, width, **kwargs)
        monkeypatch.setattr(uniform, "distinct_pairs", spy)
        for nedges, mean_degree in ((1500, 50.0), (2000, 40.0),
                                    (5000, 80.0), (20000, 150.0)):
            erdos_renyi_graph(nedges, mean_degree=mean_degree, seed=7)
            assert len(rounds[-1]) >= 2
        short = erdos_renyi_graph(20000, mean_degree=200.0, seed=7)
        assert len(rounds[-1]) == pairs.MAX_REDRAW_ROUNDS
        assert 19_600 <= short.graph.n_edges < 20_000
