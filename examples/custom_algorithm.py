#!/usr/bin/env python
"""Write your own vertex program and characterize it.

The engine's algorithm surface is open: subclass
:class:`~repro.engine.program.VertexProgram`, implement the three GAS
phases as array-level callbacks, and every library facility —
instrumentation, the behavior space, ensemble scoring — works on your
algorithm for free.

This example implements *degree-weighted label propagation* (a simple
community-detection heuristic), runs it on the synchronous engine, and
places it in the behavior space next to the built-in algorithms.

Run::

    python examples/custom_algorithm.py
"""

import numpy as np

from repro import GraphSpec
from repro.behavior.metrics import compute_metrics
from repro.behavior.space import normalize_corpus
from repro.behavior.run import run_computation
from repro.engine.engine import EngineOptions, SynchronousEngine
from repro.engine.program import Direction, VertexProgram


class LabelPropagation(VertexProgram):
    """Synchronous degree-weighted label propagation.

    Each vertex adopts the label carrying the most degree-weighted
    votes among its neighbors; vertices whose label changed signal
    their neighbors. Converges when labels stabilize.
    """

    name = "labelprop"
    domain = "ga"
    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "max"
    gather_width = 1
    apply_flops_per_vertex = 2.0

    def init(self, ctx):
        n = ctx.n_vertices
        self.label = np.arange(n, dtype=np.float64)
        self._weight = ctx.graph.degree.astype(np.float64)
        self._changed = np.zeros(n, dtype=bool)
        return ctx.all_vertices()

    def gather_edge(self, ctx, nbr, center, eid):
        # Encode (weight, label) into one comparable float: the max
        # reduce then picks the heaviest neighbor's label.
        n = ctx.n_vertices
        return self._weight[nbr] * n + self.label[nbr]

    def apply(self, ctx, vids, acc):
        acc = acc.ravel()
        n = ctx.n_vertices
        has_nbr = np.isfinite(acc) & (acc >= 0)
        new_label = np.where(has_nbr, np.mod(np.where(has_nbr, acc, 0.0), n),
                             self.label[vids])
        changed = new_label != self.label[vids]
        self.label[vids] = new_label
        self._changed[vids] = changed

    def scatter_edges(self, ctx, center, nbr, eid):
        return self._changed[center]

    def on_iteration_end(self, ctx):
        self._changed[:] = False

    def result(self, ctx):
        return {"n_labels": int(np.unique(self.label).size)}


def main() -> None:
    spec = GraphSpec.ga(nedges=5_000, alpha=2.5, seed=3)
    problem = spec.generate()

    print("== Running the custom program ==")
    # Synchronous label propagation is known to end in a period-2
    # label swap; "degrade" lets the engine's convergence watchdog stop
    # the run there and flag the trace instead of raising.
    engine = SynchronousEngine(EngineOptions(max_iterations=100,
                                             health_policy="degrade"))
    trace = engine.run(LabelPropagation(), problem)
    print(f"  iters={trace.n_iterations} stop={trace.stop_reason} "
          f"labels={trace.result['n_labels']}")

    print("\n== Where does it sit in the behavior space? ==")
    metrics = [compute_metrics(trace)]
    tags = [("labelprop", spec.nedges, spec.alpha)]
    for name in ("cc", "pagerank", "triangle", "sssp"):
        t = run_computation(name, spec)
        metrics.append(compute_metrics(t))
        tags.append((name, spec.nedges, spec.alpha))
    for v in normalize_corpus(metrics, scheme="max", tags=tags):
        print(f"  {v.tag[0]:<10} <updt={v.updt:.2f}, work={v.work:.2f}, "
              f"eread={v.eread:.2f}, msg={v.msg:.2f}>")


if __name__ == "__main__":
    main()
