"""Correctness tests for Jacobi, Loopy BP, and Dual Decomposition."""

import numpy as np
import pytest

from repro.engine.engine import SynchronousEngine
from repro.generators import grid_problem, matrix_problem, mrf_problem


def run_program(name, problem, params=None, options=None):
    from repro.algorithms.registry import create
    from repro.behavior.run import build_engine_options

    program = create(name, **(params or {}))
    engine = SynchronousEngine(build_engine_options(name, options))
    return engine.run(program, problem), program


class TestJacobi:
    def test_solves_the_system(self):
        prob = matrix_problem(80, seed=2)
        trace, prog = run_program("jacobi", prob)
        assert trace.converged
        np.testing.assert_allclose(prog.x, prob.inputs["x_true"], atol=1e-6)
        assert trace.result["solution_error"] < 1e-6

    def test_matches_scipy_dense_solve(self):
        prob = matrix_problem(40, seed=7)
        trace, prog = run_program("jacobi", prob)
        g = prob.graph
        A = np.zeros((g.n_vertices, g.n_vertices))
        src, dst = g.edge_endpoints()
        A[dst, src] = g.edge_weight
        diagonal = np.arange(g.n_vertices)
        A[diagonal, diagonal] = prob.inputs["diag"]
        x_direct = np.linalg.solve(A, prob.inputs["b"])
        np.testing.assert_allclose(prog.x, x_direct, atol=1e-6)

    def test_always_fully_active(self):
        prob = matrix_problem(50, seed=2)
        trace, _ = run_program("jacobi", prob)
        np.testing.assert_allclose(trace.active_fraction(), 1.0)

    def test_eread_constant(self):
        # Paper Fig 12: EREAD is Jacobi's only scale-insensitive metric.
        prob = matrix_problem(50, seed=2)
        trace, _ = run_program("jacobi", prob)
        reads = trace.series("edge_reads")
        assert np.all(reads == reads[0])

    def test_tol_validation(self):
        from repro._util.errors import ValidationError
        from repro.algorithms.registry import create
        with pytest.raises(ValidationError):
            create("jacobi", tol=0)


class TestLBP:
    def test_denoising_beats_observation(self):
        prob = grid_problem(28, seed=5)
        observed = np.argmax(prob.inputs["priors"], axis=1)
        observed_acc = (observed == prob.inputs["truth"]).mean()
        trace, _ = run_program("lbp", prob)
        assert trace.result["accuracy"] > observed_acc

    def test_sharp_active_drop(self):
        # Paper Fig 11: active fraction drops sharply.
        prob = grid_problem(24, seed=5)
        trace, _ = run_program("lbp", prob)
        af = trace.active_fraction()
        assert af[0] == 1.0
        assert af[min(5, af.size - 1)] < 0.7

    def test_size_independent_shape(self):
        # Paper: "graph size has no effect on the shape of active
        # fraction" — both sizes drop below half by the same fraction of
        # their lifecycle.
        from repro.behavior.metrics import resample_series

        shapes = []
        for side in (16, 32):
            trace, _ = run_program("lbp", grid_problem(side, seed=5))
            shapes.append(resample_series(trace.active_fraction(), 20))
        # The resampled curves correlate strongly.
        corr = np.corrcoef(shapes[0], shapes[1])[0, 1]
        assert corr > 0.7

    def test_labels_valid(self):
        prob = grid_problem(12, seed=5)
        _trace, prog = run_program("lbp", prob)
        labels = prog.labels()
        assert labels.min() >= 0
        assert labels.max() < prob.inputs["n_states"]

    def test_tol_validation(self):
        from repro._util.errors import ValidationError
        from repro.algorithms.registry import create
        with pytest.raises(ValidationError):
            create("lbp", tol=-1)


class TestDD:
    def test_converges_to_agreement(self):
        prob = mrf_problem(112, seed=4)
        trace, _ = run_program("dd", prob)
        assert trace.result["final_disagreements"] == 0
        assert trace.converged

    def test_energy_not_worse_than_unary_only(self):
        # The DD labeling must beat the naive per-variable argmin once
        # couplings matter (here: compare total energies).
        prob = mrf_problem(112, seed=4)
        trace, prog = run_program("dd", prob)
        mrf = prob.inputs["mrf"]
        naive = np.array([int(np.argmin(u)) for u in mrf.unary])
        tables = np.stack(mrf.pair_tables)
        naive_energy = (
            sum(mrf.unary[i][naive[i]] for i in range(mrf.n_variables))
            + tables[np.arange(mrf.n_pairwise),
                     naive[mrf.pair_vars[:, 0]],
                     naive[mrf.pair_vars[:, 1]]].sum()
        )
        assert trace.result["primal_energy"] <= naive_energy + 1e-9

    def test_always_fully_active(self):
        prob = mrf_problem(84, seed=4)
        trace, _ = run_program("dd", prob)
        np.testing.assert_allclose(trace.active_fraction(), 1.0)

    def test_slowest_convergence_vs_tc(self):
        # Paper Section 4.5: convergence rate differs by orders of
        # magnitude across domains (TC vs DD).
        from repro.behavior.run import run_computation
        from repro.experiments.config import GraphSpec

        dd_trace, _ = run_program("dd", mrf_problem(1056, seed=3))
        tc_trace = run_computation(
            "triangle", GraphSpec.ga(nedges=1000, alpha=2.5, seed=3))
        assert dd_trace.n_iterations > 30 * tc_trace.n_iterations

    def test_step_validation(self):
        from repro._util.errors import ValidationError
        from repro.algorithms.registry import create
        with pytest.raises(ValidationError):
            create("dd", step0=0)
