"""Ablation — computation model: all four executors.

Paper §3.3: "There are also other computation models used in current
graph-processing systems (edge-centric model and graph-centric model),
but the basic behavior of graph computation is conserved."

This ablation runs CC and SSSP under four executors — synchronous
vertex-centric, asynchronous vertex-centric, edge-centric (X-Stream
full-edge streaming), and graph-centric (Giraph++ partition-local
convergence) — and quantifies which behavior dimensions are conserved
and which belong to the execution policy:

- UPDT/MSG totals: conserved exactly between sync and edge-centric;
  async and graph-centric totals differ (policy-dependent scheduling
  and boundary-only messaging respectively);
- EREAD: the edge-centric stream pays the full arc list every
  iteration, while frontier engines' reads shrink with activity;
- supersteps: graph-centric needs the fewest barriers of all.
"""


from repro.algorithms.registry import create
from repro.behavior.run import build_engine_options
from repro.engine.async_engine import AsynchronousEngine, AsyncEngineOptions
from repro.engine.edge_centric import EdgeCentricEngine
from repro.engine.engine import SynchronousEngine
from repro.engine.graph_centric import GraphCentricEngine
from repro.generators import powerlaw_graph
from repro.experiments.reporting import format_table


def totals(trace):
    return (sum(r.updates for r in trace.iterations),
            sum(r.edge_reads for r in trace.iterations),
            sum(r.messages for r in trace.iterations))


def test_ablation_execution_model(artifact, benchmark):
    problem = powerlaw_graph(10_000, 2.3, seed=61)

    def compute():
        rows = []
        conserved = {}
        for algorithm in ("cc", "sssp"):
            sync = SynchronousEngine(build_engine_options(algorithm)).run(
                create(algorithm), problem)
            edge = EdgeCentricEngine().run(create(algorithm), problem)
            asyn = AsynchronousEngine(AsyncEngineOptions()).run(
                create(algorithm), problem)
            gc = GraphCentricEngine().run(create(algorithm), problem)
            for label, trace in (("sync", sync), ("edge-centric", edge),
                                 ("async-fifo", asyn),
                                 ("graph-centric", gc)):
                u, e, m = totals(trace)
                rows.append((algorithm, label, trace.n_iterations, u, e, m))
            conserved[algorithm] = (totals(sync), totals(edge),
                                    totals(asyn), sync, edge, gc)
        return rows, conserved

    rows, conserved = benchmark.pedantic(compute, rounds=1, iterations=1)
    artifact("ablation_execution_model", format_table(
        ["algorithm", "executor", "iters", "UPDT total", "EREAD total",
         "MSG total"],
        rows, title="Ablation: execution model (paper §3.3)"))

    arcs = 2 * problem.graph.n_edges
    for algorithm, (sync_t, edge_t, asyn_t, sync, edge,
                    gc) in conserved.items():
        # Conserved between sync and edge-centric: updates and messages.
        assert sync_t[0] == edge_t[0], algorithm
        assert sync_t[2] == edge_t[2], algorithm
        # EREAD is the execution-policy dimension: the stream pays the
        # full arc list per iteration.
        assert edge_t[1] == arcs * edge.n_iterations
        assert sync_t[1] < edge_t[1]
        # Async reaches the same fixed point with its own schedule; its
        # update volume is policy-dependent but the same order.
        assert 0.1 * sync_t[0] < asyn_t[0] < 10 * sync_t[0]
        # Graph-centric: fewer barriers (supersteps) than synchronous
        # iterations, with same-order message volume (its redundant
        # inner relaxations can emit somewhat more cross signals).
        assert gc.n_iterations <= sync.n_iterations
        gc_msgs = sum(r.messages for r in gc.iterations)
        assert 0.1 * sync_t[2] < gc_msgs < 10 * sync_t[2]
