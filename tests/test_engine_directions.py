"""Directed-graph traversal coverage: gather over OUT edges, scatter
over IN edges — orientations no built-in algorithm uses, exercised here
so user programs can rely on them."""

import numpy as np
import pytest

from repro.engine.engine import EngineOptions, SynchronousEngine
from repro.engine.program import Direction, VertexProgram
from repro.generators.problem import ProblemInstance
from repro.graph.csr import Graph
from tests.engine_oracle import ReferenceEngine

#: The production engine and the vertex-at-a-time oracle.
MODES = {"vectorized": SynchronousEngine, "reference": ReferenceEngine}


def directed_chain(n=5) -> ProblemInstance:
    """0 -> 1 -> 2 -> ... -> n-1."""
    return ProblemInstance(
        graph=Graph.from_edges(n, np.arange(n - 1), np.arange(1, n),
                               directed=True),
        domain="ga",
    )


class ForwardSum(VertexProgram):
    """Each vertex sums its *successors'* values (gather over OUT)."""

    name = "forward-sum"
    domain = "ga"
    gather_dir = Direction.OUT
    scatter_dir = Direction.IN  # signal predecessors
    gather_op = "sum"

    def init(self, ctx):
        self.value = np.arange(ctx.n_vertices, dtype=np.float64)
        self.collected = np.zeros(ctx.n_vertices)
        self._rounds = 0
        return ctx.all_vertices()

    def gather_edge(self, ctx, nbr, center, eid):
        return self.value[nbr]

    def apply(self, ctx, vids, acc):
        self.collected[vids] = acc.ravel()

    def scatter_edges(self, ctx, center, nbr, eid):
        return np.ones(center.size, dtype=bool)

    def converged(self, ctx):
        self._rounds += 1
        return self._rounds >= 1


@pytest.mark.parametrize("mode", ["vectorized", "reference"])
def test_gather_out_direction(mode):
    prob = directed_chain(5)
    engine = MODES[mode](EngineOptions())
    program = ForwardSum()
    trace = engine.run(program, prob)
    # Vertex i's only successor is i+1; the sink has none (identity 0).
    np.testing.assert_allclose(program.collected, [1, 2, 3, 4, 0])
    # Gather read one out-edge per non-sink vertex.
    assert trace.iterations[0].edge_reads == 4


@pytest.mark.parametrize("mode", ["vectorized", "reference"])
def test_scatter_in_direction(mode):
    """IN-direction scatter signals predecessors."""

    class BackSignal(ForwardSum):
        name = "back-signal"

        def converged(self, ctx):
            return ctx.iteration >= 1

    prob = directed_chain(4)
    engine = MODES[mode](EngineOptions())
    trace = engine.run(BackSignal(), prob)
    # Every vertex with an in-edge signals its predecessor: vertices
    # 1..3 each have one predecessor → 3 messages.
    assert trace.iterations[0].messages == 3


def test_modes_agree_on_directed_graph():
    prob = directed_chain(7)
    traces = {}
    for mode, engine_class in MODES.items():
        traces[mode] = engine_class(EngineOptions()).run(ForwardSum(), prob)
    a, b = traces["vectorized"], traces["reference"]
    assert [(r.active, r.updates, r.edge_reads, r.messages)
            for r in a.iterations] == \
           [(r.active, r.updates, r.edge_reads, r.messages)
            for r in b.iterations]
