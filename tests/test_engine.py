"""Tests for the synchronous GAS engine using purpose-built toy programs."""

import numpy as np
import pytest

from repro._util.errors import ResourceLimitError, ValidationError
from repro.engine.context import Context
from repro.engine.engine import EngineOptions, SynchronousEngine
from repro.engine.program import Direction, VertexProgram
from repro.generators.problem import ProblemInstance
from repro.graph.csr import Graph


def line_graph(n=5) -> ProblemInstance:
    """0 - 1 - 2 - ... - (n-1)."""
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    return ProblemInstance(
        graph=Graph.from_edges(n, src, dst),
        domain="ga",
        params={"nedges": n - 1},
    )


class Flood(VertexProgram):
    """BFS-style flood from vertex 0; counts hops."""

    name = "flood"
    domain = "ga"
    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "min"
    apply_flops_per_vertex = 1.0

    def init(self, ctx):
        self.level = np.full(ctx.n_vertices, np.inf)
        self.level[0] = 0
        self._changed = np.zeros(ctx.n_vertices, dtype=bool)
        return np.array([0])

    def gather_edge(self, ctx, nbr, center, eid):
        return self.level[nbr] + 1.0

    def apply(self, ctx, vids, acc):
        acc = acc.ravel()
        better = acc < self.level[vids]
        self.level[vids] = np.where(better, acc, self.level[vids])
        self._changed[vids] = better | (vids == 0) & (ctx.iteration == 0)

    def scatter_edges(self, ctx, center, nbr, eid):
        return self._changed[center] & (self.level[center] + 1
                                        < self.level[nbr])

    def on_iteration_end(self, ctx):
        self._changed[:] = False


class NoGather(VertexProgram):
    """Gather-less program; apply gets acc=None; stops after 3 rounds."""

    name = "nogather"
    domain = "ga"
    gather_dir = Direction.NONE
    scatter_dir = Direction.OUT

    def init(self, ctx):
        self.rounds = 0
        return ctx.all_vertices()

    def apply(self, ctx, vids, acc):
        assert acc is None

    def scatter_edges(self, ctx, center, nbr, eid):
        return np.ones(center.size, dtype=bool)

    def on_iteration_end(self, ctx):
        self.rounds += 1

    def converged(self, ctx):
        return self.rounds >= 3


class Hungry(VertexProgram):
    """Declares enormous state to trip the memory budget."""

    name = "hungry"
    domain = "ga"
    gather_dir = Direction.NONE
    scatter_dir = Direction.NONE

    def init(self, ctx):
        return ctx.all_vertices()

    def state_bytes(self, ctx):
        return 10**15

    def apply(self, ctx, vids, acc):
        pass


class BadGatherShape(VertexProgram):
    name = "badshape"
    domain = "ga"
    gather_dir = Direction.IN
    scatter_dir = Direction.NONE

    def init(self, ctx):
        return ctx.all_vertices()

    def gather_edge(self, ctx, nbr, center, eid):
        return np.zeros((nbr.size, 3))  # width mismatch

    def apply(self, ctx, vids, acc):
        pass


class TestEngineBasics:
    def test_flood_levels_and_convergence(self):
        prob = line_graph(6)
        trace = SynchronousEngine().run(Flood(), prob)
        assert trace.converged
        assert trace.stop_reason == "frontier-empty"
        # Each iteration advances the frontier one hop down the line.
        assert trace.iterations[0].active == 1

    def test_flood_counters_on_line(self):
        prob = line_graph(4)  # 0-1-2-3
        trace = SynchronousEngine().run(Flood(), prob)
        # iter0: {0} gathers its 1 edge, updates 1 vertex, signals 1.
        it0 = trace.iterations[0]
        assert (it0.active, it0.updates, it0.edge_reads) == (1, 1, 1)
        assert it0.messages == 1
        # iter1: {1} has 2 edges.
        it1 = trace.iterations[1]
        assert (it1.active, it1.edge_reads, it1.messages) == (1, 2, 1)

    def test_acc_none_when_no_gather(self):
        trace = SynchronousEngine().run(NoGather(), line_graph(4))
        assert trace.stop_reason == "converged"
        assert all(rec.edge_reads == 0 for rec in trace.iterations)
        assert trace.n_iterations == 3

    def test_max_iterations_cap(self):
        opts = EngineOptions(max_iterations=2)
        trace = SynchronousEngine(opts).run(NoGather(), line_graph(4))
        assert trace.n_iterations == 2
        assert not trace.converged
        assert trace.stop_reason == "max-iterations"

    def test_memory_budget(self):
        with pytest.raises(ResourceLimitError) as exc:
            SynchronousEngine().run(Hungry(), line_graph(4))
        assert exc.value.required_bytes > exc.value.budget_bytes

    def test_bad_gather_shape_rejected(self):
        with pytest.raises(ValidationError):
            SynchronousEngine().run(BadGatherShape(), line_graph(4))

    def test_frontier_out_of_range_rejected(self):
        class BadInit(NoGather):
            def init(self, ctx):
                return np.array([99])

        with pytest.raises(ValidationError):
            SynchronousEngine().run(BadInit(), line_graph(4))

    def test_trace_identity_fields(self):
        prob = line_graph(5)
        trace = SynchronousEngine().run(Flood(), prob)
        assert trace.algorithm == "flood"
        assert trace.n_vertices == 5
        assert trace.n_edges == 4
        assert trace.wall_time_s > 0


class TestWorkModels:
    def test_unit_work_deterministic(self):
        prob = line_graph(6)
        options = EngineOptions(work_model="unit")
        a = SynchronousEngine(options).run(Flood(), prob)
        b = SynchronousEngine(options).run(Flood(), prob)
        assert [r.work for r in a.iterations] == [r.work for r in b.iterations]
        assert a.iterations[0].work == pytest.approx(1e-9)  # 1 vertex × 1 flop

    def test_measured_work_positive(self):
        prob = line_graph(6)
        trace = SynchronousEngine(
            EngineOptions(work_model="measured")).run(Flood(), prob)
        assert all(r.work > 0 for r in trace.iterations)
        assert trace.work_model == "measured"

    def test_add_work_counted(self):
        class Reporting(NoGather):
            def apply(self, ctx, vids, acc):
                ctx.add_work(100.0)

        trace = SynchronousEngine().run(Reporting(), line_graph(4))
        # 4 vertices × 1 flop + 100 (vectorized: one apply call).
        assert trace.iterations[0].work == pytest.approx(104e-9)

    def test_add_work_rejects_negative(self):
        prob = line_graph(3)
        ctx = Context(prob)
        with pytest.raises(ValidationError):
            ctx.add_work(-1)


class TestEngineOptions:
    def test_rejects_bad_mode(self):
        # No drive mode to pick: the vertex-at-a-time oracle is
        # tests/engine_oracle.py, not an option.
        for mode in ("async", "reference", "vectorized"):
            with pytest.raises(TypeError):
                EngineOptions(mode=mode)

    def test_rejects_bad_work_model(self):
        with pytest.raises(ValueError):
            EngineOptions(work_model="guess")

    def test_rejects_bad_max_iterations(self):
        with pytest.raises(ValidationError):
            EngineOptions(max_iterations=0)


class TestDirections:
    def test_both_rejected_on_undirected(self):
        class BothWays(Flood):
            gather_dir = Direction.BOTH

        with pytest.raises(ValidationError):
            SynchronousEngine().run(BothWays(), line_graph(4))

    def test_directed_in_vs_out(self):
        # Directed line 0->1->2: gather over IN sees the predecessor.
        src = np.array([0, 1])
        dst = np.array([1, 2])
        prob = ProblemInstance(
            graph=Graph.from_edges(3, src, dst, directed=True),
            domain="ga",
        )
        trace = SynchronousEngine().run(Flood(), prob)
        assert trace.converged

    def test_context_properties(self):
        prob = line_graph(7)
        ctx = Context(prob, params={"p": 1})
        assert ctx.n_vertices == 7
        assert ctx.n_edges == 6
        assert ctx.param("p") == 1
        assert ctx.param("missing", 5) == 5
        with pytest.raises(ValidationError):
            ctx.require_param("absent")
        assert ctx.all_vertices().tolist() == list(range(7))
