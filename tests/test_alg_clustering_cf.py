"""Correctness tests for K-Means and the Collaborative Filtering programs."""

import numpy as np
import pytest

from repro.engine.engine import SynchronousEngine
from repro.generators import bipartite_rating_graph, powerlaw_graph


def run_program(name, problem, params=None, options=None, program=None):
    from repro.algorithms.registry import create
    from repro.behavior.run import build_engine_options

    program = program or create(name, **(params or {}))
    engine = SynchronousEngine(build_engine_options(name, options))
    return engine.run(program, problem), program


@pytest.fixture(scope="module")
def clustering():
    return powerlaw_graph(1000, 2.5, seed=13, with_points=True)


@pytest.fixture(scope="module")
def cf():
    return bipartite_rating_graph(800, 2.5, seed=13)


class TestKMeans:
    def test_inertia_beats_random_assignment(self, clustering):
        trace, prog = run_program("kmeans", clustering)
        pts = clustering.inputs["points"]
        rng = np.random.default_rng(0)
        rand_assign = rng.integers(0, prog.k, pts.shape[0])
        rand_centers = np.stack([
            pts[rand_assign == c].mean(axis=0) if (rand_assign == c).any()
            else np.zeros(2) for c in range(prog.k)])
        rand_inertia = ((pts - rand_centers[rand_assign]) ** 2).sum()
        assert trace.result["inertia"] < rand_inertia

    def test_plain_lloyd_on_separated_blobs(self):
        # With reward=0 KM is Lloyd's algorithm; on well-separated blobs
        # it must recover the partition exactly.
        rng = np.random.default_rng(3)
        blob_a = rng.normal(0, 0.05, size=(50, 2))
        blob_b = rng.normal(5, 0.05, size=(50, 2))
        pts = np.vstack([blob_a, blob_b])
        prob = powerlaw_graph(150, 2.5, seed=3, with_points=True)
        # Splice our points in (vertex count must match).
        n = prob.graph.n_vertices
        reps = int(np.ceil(n / 100))
        prob.inputs["points"] = np.tile(pts, (reps, 1))[:n]
        trace, prog = run_program(
            "kmeans", prob, params={"k": 2, "reward": 0.0})
        labels = prog.assignment
        group_a = labels[np.arange(n) % 100 < 50]
        group_b = labels[np.arange(n) % 100 >= 50]
        assert len(set(group_a.tolist())) == 1
        assert len(set(group_b.tolist())) == 1
        assert group_a[0] != group_b[0]

    def test_always_fully_active(self, clustering):
        trace, _ = run_program("kmeans", clustering)
        np.testing.assert_allclose(trace.active_fraction(), 1.0)

    def test_eread_constant(self, clustering):
        trace, _ = run_program("kmeans", clustering)
        reads = trace.series("edge_reads")
        assert np.all(reads == reads[0])  # paper Fig 6: EREAD constant

    def test_cluster_sizes_sum_to_n(self, clustering):
        trace, _ = run_program("kmeans", clustering)
        assert (sum(trace.result["cluster_sizes"])
                == clustering.graph.n_vertices)

    @pytest.mark.parametrize("arm", ["declared", "unfused"])
    def test_no_reward_is_plain_lloyd_step_for_step(self, clustering, arm):
        """Exact oracle: with ``reward=0`` every iteration's assignment
        and centers equal a plain NumPy Lloyd iteration from the same
        seeded centers, bit for bit, and the run stops at the same
        iteration. Declared, the votes go through the fused count
        gather; unfused, through the one-hot callback.

        Only the synchronous engine runs k-means: the asynchronous one
        refuses it (no ``supports_async``), and the edge- and
        graph-centric ones take only scalar monotone gathers (no
        ``supports_edge_centric``), not a k-wide vote histogram.
        """
        from repro._util.errors import ValidationError
        from repro.algorithms.registry import create
        from repro.engine import (
            AsynchronousEngine,
            EdgeCentricEngine,
            GraphCentricEngine,
        )
        from tests.conftest import unfused

        for engine_class in (AsynchronousEngine, EdgeCentricEngine,
                             GraphCentricEngine):
            with pytest.raises(ValidationError):
                engine_class().run(create("kmeans"), clustering)

        program = create("kmeans", reward=0.0)
        if arm == "unfused":
            program = unfused(program)
        start, steps = {}, []
        init, end = program.init, program.on_iteration_end

        def seeded_init(ctx):
            frontier = init(ctx)
            start["centers"] = program.centers.copy()
            return frontier

        def recording_end(ctx):
            end(ctx)
            steps.append((program.assignment.copy(), program.centers.copy()))

        program.init, program.on_iteration_end = seeded_init, recording_end
        trace, _ = run_program("kmeans", clustering, program=program)

        # Lloyd: assign every point to its nearest center, then move
        # each non-empty cluster's center to its members' mean; stop
        # once no assignment changed and no center moved by center_tol.
        pts, k = clustering.inputs["points"], program.k
        centers = start["centers"]

        def nearest(centers):
            return ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2) \
                .argmin(axis=1)

        labels, lloyd = nearest(centers), []
        for _ in range(trace.n_iterations + 1):
            new_labels = nearest(centers)
            changed = (new_labels != labels).any()
            labels, old = new_labels, centers
            centers = np.array([pts[labels == c].mean(axis=0)
                                if (labels == c).any() else old[c]
                                for c in range(k)])
            lloyd.append((labels, centers))
            if not changed and np.abs(centers - old).max() \
                    < program.center_tol:
                break
        assert trace.converged
        assert len(steps) == len(lloyd) == trace.n_iterations
        for i, ((a, c), (a_ref, c_ref)) in enumerate(zip(steps, lloyd)):
            np.testing.assert_array_equal(a, a_ref, err_msg=f"step {i}")
            np.testing.assert_array_equal(c, c_ref, err_msg=f"step {i}")

    def test_param_validation(self):
        from repro._util.errors import ValidationError
        from repro.algorithms.registry import create
        with pytest.raises(ValidationError):
            create("kmeans", k=0)
        with pytest.raises(ValidationError):
            create("kmeans", reward=-1)


class TestALS:
    def test_rmse_improves_over_init(self, cf):
        trace, prog = run_program("als", cf)
        # Initial random factors predict ~0.2·0.2·4 ≈ far from ratings
        # (mean 3.5): final RMSE must be far below the raw rating std.
        assert trace.result["rmse"] < 1.0

    def test_sides_alternate_through_activation(self, cf):
        trace, prog = run_program("als", cf,
                                  options={"max_iterations": 4})
        # Iteration 0 is users only.
        n_users = cf.inputs["n_users"]
        assert trace.iterations[0].active <= n_users

    def test_frontier_drains(self, cf):
        trace, _ = run_program("als", cf)
        assert trace.converged
        af = trace.active_fraction()
        assert af[-1] < af.max()

    @pytest.mark.parametrize("arm", ["declared", "unfused"])
    def test_one_half_step_is_the_normal_equation_solve(self, cf, arm):
        """Exact oracle: after one iteration from a seeded start, every
        user row is ``solve(Σ f fᵀ + λ·max(deg, 1)·I, Σ r f)`` over the
        user's rating edges, computed here in NumPy from the initial
        item factors, to 1e-12; item rows have not moved.

        Only the synchronous engine runs ALS. The other three refuse to
        run it, and the statement would not hold on them: the
        asynchronous engine (no ``supports_async``) lets an item signaled
        mid-round move before later users gather, and the edge- and
        graph-centric engines (no ``supports_edge_centric``) take only
        scalar monotone gathers, not a k×k+k Gram block.
        """
        from repro._util.errors import ValidationError
        from repro.algorithms.registry import create
        from repro.behavior.run import build_engine_options
        from repro.engine import (
            AsynchronousEngine,
            EdgeCentricEngine,
            GraphCentricEngine,
        )
        from tests.conftest import unfused

        for engine_class in (AsynchronousEngine, EdgeCentricEngine,
                             GraphCentricEngine):
            with pytest.raises(ValidationError):
                engine_class().run(create("als"), cf)

        program = create("als")
        if arm == "unfused":
            program = unfused(program)
        start = {}
        init = program.init

        def seeded_init(ctx):
            frontier = init(ctx)
            start["factors"] = program.factors.copy()
            return frontier

        program.init = seeded_init
        engine = SynchronousEngine(
            build_engine_options("als", {"max_iterations": 1}))
        engine.run(program, cf)

        graph, f0 = cf.graph, start["factors"]
        src, dst = graph.edge_endpoints()
        is_user = np.asarray(cf.inputs["is_user"], dtype=bool)
        users = np.flatnonzero(is_user)
        k, reg = program.k, program.reg
        expected = f0.copy()
        for u in users:
            edges = np.flatnonzero((src == u) | (dst == u))
            other = np.where(src[edges] == u, dst[edges], src[edges])
            gram = np.zeros((k, k))
            rhs = np.zeros(k)
            for e, i in zip(edges, other):
                gram += np.outer(f0[i], f0[i])
                rhs += graph.edge_weight[e] * f0[i]
            ridge = reg * max(edges.size, 1)
            expected[u] = np.linalg.solve(gram + ridge * np.eye(k), rhs)
        assert np.abs(program.factors[users] - expected[users]).max() \
            <= 1e-12
        np.testing.assert_array_equal(program.factors[~is_user],
                                      f0[~is_user])

    def test_requires_weighted_graph(self):
        prob = powerlaw_graph(200, 2.5, seed=1)
        prob.domain = "cf"
        prob.inputs["is_user"] = np.ones(prob.graph.n_vertices, dtype=bool)
        from repro._util.errors import ValidationError
        with pytest.raises(ValidationError):
            run_program("als", prob)


class TestNMF:
    def test_factors_stay_nonnegative(self, cf):
        _trace, prog = run_program("nmf", cf)
        assert prog.factors.min() >= 0

    def test_capped_at_20_iterations(self, cf):
        trace, _ = run_program("nmf", cf)
        assert trace.n_iterations == 20
        assert trace.stop_reason == "max-iterations"

    def test_rmse_improves(self, cf):
        short, _ = run_program("nmf", cf, options={"max_iterations": 1})
        full, _ = run_program("nmf", cf)
        assert full.result["rmse"] < short.result["rmse"]

    def test_always_fully_active(self, cf):
        trace, _ = run_program("nmf", cf)
        np.testing.assert_allclose(trace.active_fraction(), 1.0)

    def test_messages_one_direction_per_iteration(self, cf):
        trace, _ = run_program("nmf", cf)
        m = cf.graph.n_edges
        assert all(rec.messages == m for rec in trace.iterations)


    @pytest.mark.parametrize("arm", ["declared", "unfused"])
    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("nedges", [300, 3000])
    def test_objective_never_increases(self, nedges, alpha, arm):
        """Exact statement: the squared error over the rated edges,
        measured after init and after every iteration's apply, never
        increases. Each iteration is one Lee-Seung multiplicative
        update of one side with the other held still, which cannot
        increase the objective.

        Only the synchronous engine runs NMF (it declares neither
        ``supports_async`` nor ``supports_edge_centric``); the other
        three refuse it.
        """
        from repro._util.errors import ValidationError
        from repro.algorithms.registry import create
        from repro.engine import (
            AsynchronousEngine,
            EdgeCentricEngine,
            GraphCentricEngine,
        )
        from tests.conftest import unfused

        problem = bipartite_rating_graph(nedges, alpha, seed=13)
        for engine_class in (AsynchronousEngine, EdgeCentricEngine,
                             GraphCentricEngine):
            with pytest.raises(ValidationError):
                engine_class().run(create("nmf"), problem)

        program = create("nmf")
        if arm == "unfused":
            program = unfused(program)
        src, dst = problem.graph.edge_endpoints()
        rating = problem.graph.edge_weight
        errors = []

        def record():
            f = program.factors
            err = (f[src] * f[dst]).sum(axis=1) - rating
            errors.append(float((err ** 2).sum()))

        init, apply = program.init, program.apply

        def recorded_init(ctx):
            frontier = init(ctx)
            record()
            return frontier

        def recorded_apply(ctx, vids, acc):
            apply(ctx, vids, acc)
            record()

        program.init, program.apply = recorded_init, recorded_apply
        trace, _ = run_program("nmf", problem, program=program)
        assert len(errors) == trace.n_iterations + 1 == 21
        assert all(b <= a for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] < errors[0]


class TestSGD:
    def test_rmse_improves(self, cf):
        short, _ = run_program("sgd", cf, options={"max_iterations": 1})
        full, _ = run_program("sgd", cf)
        assert full.result["rmse"] < short.result["rmse"]

    def test_max_messages(self, cf):
        # SGD pushes a gradient both ways on every edge, every iteration
        # — the paper's maximum-MSG algorithm.
        trace, _ = run_program("sgd", cf)
        m = cf.graph.n_edges
        assert all(rec.messages == 2 * m for rec in trace.iterations)

    def test_capped_at_20(self, cf):
        trace, _ = run_program("sgd", cf)
        assert trace.n_iterations == 20


class TestSVD:
    def test_top_singular_value_matches_dense(self, cf):
        trace, _ = run_program("svd", cf)
        # Dense oracle.
        n_users = cf.inputs["n_users"]
        src, dst = cf.graph.edge_endpoints()
        users = np.minimum(src, dst)
        items = np.maximum(src, dst) - n_users
        A = np.zeros((n_users, cf.inputs["n_items"]))
        A[users, items] = cf.graph.edge_weight
        sigma = np.linalg.svd(A, compute_uv=False)
        assert trace.result["top_singular_value"] == pytest.approx(
            sigma[0], rel=0.02)

    def test_leading_values_ordered(self, cf):
        trace, _ = run_program("svd", cf)
        sv = trace.result["singular_values"]
        assert all(a >= b - 1e-9 for a, b in zip(sv, sv[1:]))

    def test_iterations_equals_restarts_times_steps(self, cf):
        trace, _ = run_program(
            "svd", cf, params={"lanczos_steps": 5, "restarts": 3})
        assert trace.n_iterations == 2 * 5 * 3
        assert trace.converged

    def test_always_fully_active(self, cf):
        trace, _ = run_program("svd", cf)
        np.testing.assert_allclose(trace.active_fraction(), 1.0)
