"""Hot-path bugfix regressions: stop accounting at the iteration cap,
and degree-zero normalization for isolated vertices.

Stop accounting: a run that drains its frontier on the *last* allowed
iteration used to fall out of the loop and report ``max-iterations``
even though it had converged — the cap and the drain happened to
coincide. Every engine now checks the drain at the end of the loop
body, so capping a run at exactly its natural length changes nothing.

Degree-zero: normalizations that divide by a vertex degree
(``1/out_degree`` in PageRank's contribution, the edge-centric
accumulator rows of isolated vertices) must yield exact zeros and
reduction identities — never NaN/Inf leaking into vertex state.
"""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.algorithms.registry import create
from repro.engine.async_engine import AsyncEngineOptions, AsynchronousEngine
from repro.engine.edge_centric import EdgeCentricEngine, EdgeCentricOptions
from repro.engine.engine import (
    PULL_ACTIVE_FRACTION,
    EngineOptions,
    SynchronousEngine,
)
from repro.engine.graph_centric import GraphCentricEngine, GraphCentricOptions
from repro.generators import powerlaw_graph
from repro.generators.problem import ProblemInstance
from repro.graph.csr import Graph
from tests.conftest import pull_from, unfused
from tests.engine_oracle import ReferenceEngine


@pytest.fixture(scope="module")
def problem():
    return powerlaw_graph(800, 2.4, seed=19)


def records(trace):
    return [(r.iteration, r.active, r.updates, r.edge_reads, r.messages,
             r.work) for r in trace.iterations]


# ----------------------------------------------------------------------
# Satellite 1: frontier-empty stop accounting at the iteration cap
# ----------------------------------------------------------------------

class TestStopAccountingAtCap:
    """Capping a run at its natural iteration count must not change
    its stop reason, its convergence flag, or any counter."""

    def test_synchronous(self, problem):
        free = SynchronousEngine(EngineOptions()).run(create("cc"), problem)
        assert free.stop_reason == "frontier-empty" and free.converged
        n = free.n_iterations
        capped = SynchronousEngine(EngineOptions(max_iterations=n)).run(
            create("cc"), problem)
        assert capped.stop_reason == "frontier-empty"
        assert capped.converged
        assert records(capped) == records(free)

    def test_synchronous_converged_precedence(self, problem):
        """A tolerance stop on the last allowed iteration still reports
        "converged" (the drain check must not shadow it)."""
        free = SynchronousEngine(EngineOptions()).run(
            create("jacobi"), _system())
        assert free.stop_reason == "converged"
        capped = SynchronousEngine(
            EngineOptions(max_iterations=free.n_iterations)).run(
            create("jacobi"), _system())
        assert capped.stop_reason == "converged" and capped.converged

    def test_edge_centric(self, problem):
        free = EdgeCentricEngine().run(create("cc"), problem)
        assert free.stop_reason == "frontier-empty" and free.converged
        n = free.n_iterations
        capped = EdgeCentricEngine(EdgeCentricOptions(
            max_iterations=n)).run(create("cc"), problem)
        assert capped.stop_reason == "frontier-empty"
        assert capped.converged
        assert records(capped) == records(free)

    def test_graph_centric(self, problem):
        free = GraphCentricEngine().run(create("cc"), problem)
        assert free.stop_reason == "frontier-empty" and free.converged
        n = free.n_iterations
        capped = GraphCentricEngine(GraphCentricOptions(
            max_supersteps=n)).run(create("cc"), problem)
        assert capped.stop_reason == "frontier-empty"
        assert capped.converged
        assert records(capped) == records(free)

    def test_asynchronous(self, problem):
        free = AsynchronousEngine(AsyncEngineOptions()).run(
            create("cc"), problem)
        assert free.stop_reason == "scheduler-drained" and free.converged
        steps = sum(r.updates for r in free.iterations)
        capped = AsynchronousEngine(AsyncEngineOptions(
            max_steps=steps)).run(create("cc"), problem)
        assert capped.stop_reason == "scheduler-drained"
        assert capped.converged
        assert records(capped) == records(free)

    def test_cap_below_natural_length_still_reported(self, problem):
        """One iteration short of convergence IS a max-iterations stop."""
        free = SynchronousEngine(EngineOptions()).run(create("cc"), problem)
        short = SynchronousEngine(EngineOptions(
            max_iterations=free.n_iterations - 1,
            health_policy="off")).run(create("cc"), problem)
        assert short.stop_reason == "max-iterations"
        assert not short.converged


def _system():
    from repro.generators import matrix_problem

    return matrix_problem(60, seed=2)


# ----------------------------------------------------------------------
# Satellite 2: degree-zero normalization / isolated vertices
# ----------------------------------------------------------------------

def isolated_problem(n=12, n_isolated=4):
    """A small connected core plus ``n_isolated`` degree-0 vertices."""
    core = n - n_isolated
    src = np.arange(core - 1)
    dst = np.arange(1, core)
    graph = Graph.from_edges(n, src, dst, directed=False)
    return ProblemInstance(graph=graph, domain="ga",
                           params={"isolated": n_isolated})


class TestDegreeZero:
    def test_inverse_degree_is_zero_for_isolated(self):
        g = isolated_problem().graph
        assert np.all(np.isfinite(g.inv_out_degree))
        assert np.all(np.isfinite(g.inv_in_degree))
        isolated = g.out_degree == 0
        assert isolated.sum() == 4
        np.testing.assert_array_equal(g.inv_out_degree[isolated], 0.0)
        np.testing.assert_array_equal(
            g.inv_out_degree[~isolated],
            1.0 / g.out_degree[~isolated].astype(np.float64))

    @pytest.mark.parametrize("arm", [
        dict(), dict(unfused=True), dict(pull_from=0.0),
        dict(reference=True),
    ])
    def test_pagerank_isolated_vertices_finite(self, arm):
        problem = isolated_problem()
        program = create("pagerank")
        if arm.get("unfused"):  # callback path on every iteration
            program = unfused(program)
        engine_class = (ReferenceEngine if arm.get("reference")
                        else SynchronousEngine)
        with pull_from(arm.get("pull_from", PULL_ACTIVE_FRACTION)):
            trace = engine_class().run(program, problem)
        assert not trace.degraded
        assert np.all(np.isfinite(program.rank))
        # An isolated vertex receives nothing and keeps the teleport
        # mass exactly: (1 - damping) with the default 0.85.
        isolated = problem.graph.out_degree == 0
        np.testing.assert_array_equal(program.rank[isolated], 1.0 - 0.85)

    @pytest.mark.parametrize("algorithm", ["cc", "kcore"])
    def test_analytics_state_finite_with_isolated(self, algorithm):
        problem = isolated_problem()
        program = create(algorithm)
        trace = SynchronousEngine(EngineOptions()).run(program, problem)
        assert trace.converged and not trace.degraded
        for name, arr in vars(program).items():
            if isinstance(arr, np.ndarray) and arr.dtype.kind == "f":
                assert np.all(np.isfinite(arr)), f"{algorithm}.{name}"

    def test_sssp_isolated_unreachable_not_nan(self):
        problem = isolated_problem()
        program = create("sssp")
        trace = SynchronousEngine(EngineOptions()).run(program, problem)
        assert trace.converged
        # Unreachable (isolated) vertices stay at +inf — by definition —
        # but never NaN, and reachable distances are finite.
        assert not np.any(np.isnan(program.dist))
        isolated = problem.graph.out_degree == 0
        assert np.all(np.isinf(program.dist[isolated]))
        assert np.all(np.isfinite(program.dist[~isolated]))

    def test_engines_agree_on_isolated_graph(self):
        problem = isolated_problem()
        results = {}
        for label, run in {
            "sync": lambda p: SynchronousEngine(EngineOptions()).run(
                p, problem),
            "edge-centric": lambda p: EdgeCentricEngine().run(p, problem),
            "graph-centric": lambda p: GraphCentricEngine().run(p, problem),
            "async": lambda p: AsynchronousEngine(AsyncEngineOptions()).run(
                p, problem),
        }.items():
            program = create("cc")
            trace = run(program)
            assert not trace.degraded, label
            results[label] = program.component
        for label, component in results.items():
            np.testing.assert_array_equal(component, results["sync"],
                                          err_msg=label)


# ----------------------------------------------------------------------
# One callback kernel: a wrong-shape callback is rejected on every
# engine, not only the synchronous one
# ----------------------------------------------------------------------

class TestCallbackShapeValidation:
    """A scalar from ``gather_edge`` used to broadcast through
    ``ufunc.at`` on the edge-centric engine (converged after 1
    iteration, 0 messages: a silent wrong answer) and raise a bare
    ``IndexError`` on the graph-centric one; a scalar ``True`` from
    ``scatter_edges`` broadcast on both and ended in a watchdog stall."""

    ENGINES = {
        "synchronous-push": SynchronousEngine,
        "edge-centric": EdgeCentricEngine,
        "graph-centric": GraphCentricEngine,
        "asynchronous": AsynchronousEngine,
    }

    @staticmethod
    def scalar_cc(callback, value):
        """CC on the callback path whose ``callback`` returns a scalar."""
        program = unfused(create("cc"))
        setattr(program, callback, lambda ctx, a, b, eid: value)
        return program

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_wrong_shape_gather_edge(self, engine):
        with pytest.raises(ValidationError,
                           match=r"cc\.gather_edge returned shape \(\), "
                                 r"expected \(\d+,\)"):
            self.ENGINES[engine]().run(
                self.scalar_cc("gather_edge", 0.0),
                powerlaw_graph(400, 2.5, seed=3))

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_wrong_shape_scatter_edges(self, engine):
        with pytest.raises(ValidationError,
                           match=r"cc\.scatter_edges returned shape \(\), "
                                 r"expected \(\d+,\)"):
            self.ENGINES[engine]().run(
                self.scalar_cc("scatter_edges", True),
                powerlaw_graph(400, 2.5, seed=3))
