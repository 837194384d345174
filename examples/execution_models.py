#!/usr/bin/env python
"""One algorithm, three execution models.

The paper measures behavior under synchronous GAS (GraphLab's
synchronous mode). The library also executes the same vertex programs
asynchronously (FIFO or priority scheduling) and edge-centrically
(X-Stream-style full-edge streaming). This example runs SSSP under all
three and shows what the paper's §3.3 remark — "the basic behavior of
graph computation is conserved" across computation models — means in
numbers: identical results, conserved update/message volume for the
edge-centric model, and a policy-dependent schedule for the
asynchronous one.

Run::

    python examples/execution_models.py
"""


from repro.algorithms.registry import create
from repro.behavior.run import build_engine_options
from repro.engine.async_engine import AsynchronousEngine, AsyncEngineOptions
from repro.engine.edge_centric import EdgeCentricEngine
from repro.engine.engine import SynchronousEngine
from repro.engine.graph_centric import GraphCentricEngine
from repro.generators import powerlaw_graph


def main() -> None:
    problem = powerlaw_graph(20_000, 2.4, seed=9)
    print(f"graph: |V|={problem.graph.n_vertices:,} "
          f"|E|={problem.graph.n_edges:,}\n")

    runs = {}
    runs["sync (vertex-centric)"] = SynchronousEngine(
        build_engine_options("sssp")).run(create("sssp"), problem)
    runs["edge-centric (X-Stream)"] = EdgeCentricEngine().run(
        create("sssp"), problem)
    runs["graph-centric (Giraph++)"] = GraphCentricEngine().run(
        create("sssp"), problem)
    runs["async (FIFO)"] = AsynchronousEngine(
        AsyncEngineOptions(scheduler="fifo")).run(create("sssp"), problem)
    runs["async (priority)"] = AsynchronousEngine(
        AsyncEngineOptions(scheduler="priority")).run(
        create("sssp"), problem)

    print(f"{'executor':<26} {'iters':>6} {'updates':>9} "
          f"{'edge reads':>11} {'messages':>9}  result")
    reference = None
    for label, trace in runs.items():
        updates = sum(r.updates for r in trace.iterations)
        reads = sum(r.edge_reads for r in trace.iterations)
        msgs = sum(r.messages for r in trace.iterations)
        print(f"{label:<26} {trace.n_iterations:>6} {updates:>9,} "
              f"{reads:>11,} {msgs:>9,}  reached={trace.result['reached']}")
        if reference is None:
            reference = trace.result["reached"]
        assert trace.result["reached"] == reference

    print("\n→ all executors reach the same distances; what changes is")
    print("  *how much behavior* each spends getting there — execution")
    print("  policy is a benchmarking dimension of its own.")


if __name__ == "__main__":
    main()
