"""Graph-centric execution ("think like a graph", Tian et al.) —
the third computation model named in paper §3.3.

The graph is split into partitions; one superstep runs each partition's
*internal* computation to local convergence (values propagate freely
inside the block), then boundary updates cross partitions
synchronously. Compared to vertex-centric synchronous execution this
trades more work per superstep for far fewer supersteps — the
graph-centric pitch — while, per the paper's conservation claim, the
*transferring-information-through-edges* behavior remains the same kind
of event stream.

Like the edge-centric engine, this is restricted to monotone
min/max-relaxation programs (CC, SSSP: ``supports_graph_centric`` via
the same ``supports_edge_centric`` contract — both need order-free
re-applicable relaxations). Results are asserted equal to the
synchronous engine's; counters are mapped as:

- ``active``/``updates`` — vertices applied during the superstep
  (inner sweeps included, as Giraph++ counts them);
- ``edge_reads`` — edges gathered across all inner sweeps;
- ``messages`` — *cross-partition* signals only (internal propagation
  is the model's whole point: it sends no messages);
- one :class:`IterationRecord` per superstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import sorted_unique_ids
from repro.engine.instrumentation import Counters
from repro.engine.loop import GASEngine, Run, RunOptions
from repro.engine.program import Direction, VertexProgram


@dataclass
class GraphCentricOptions(RunOptions):
    """Configuration of a graph-centric run."""

    #: Number of partitions (hash partitioning by vertex id).
    n_partitions: int = 4
    max_supersteps: int = 10_000
    #: Cap on inner sweeps per partition per superstep.
    max_inner_sweeps: int = 1_000

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_partitions < 1:
            raise ValidationError("n_partitions must be >= 1")
        if self.max_supersteps < 1 or self.max_inner_sweeps < 1:
            raise ValidationError("iteration caps must be >= 1")


class GraphCentricEngine(GASEngine):
    """Partition-local convergence per superstep, synchronous boundaries."""

    options_class = GraphCentricOptions
    label = "graph-centric"
    cap_reason = "max-supersteps"
    # Inner sweeps interleave gather/apply/scatter per partition, so
    # telemetry times the superstep as one phase.
    step_phase = "local-compute"

    def _check_program(self, program: VertexProgram) -> None:
        if not getattr(program, "supports_edge_centric", False):
            raise ValidationError(
                f"{program.name} is not a monotone relaxation "
                "(supports_edge_centric contract); graph-centric "
                "execution is undefined for it"
            )
        if program.gather_dir is not Direction.IN or program.gather_width != 1:
            raise ValidationError("graph-centric execution needs a scalar "
                                  "IN-direction gather")

    def _cap(self, run: Run) -> int:
        return self.options.max_supersteps

    def _setup(self, run: Run) -> None:
        run.partition = (np.arange(run.graph.n_vertices, dtype=np.int64)
                         % self.options.n_partitions)

    def _step(self, run: Run, iteration: int, phase_times):
        opts = self.options
        program, ctx, kernels = run.program, run.ctx, run.kernels
        partition, frontier = run.partition, run.frontier
        n = run.graph.n_vertices

        updates = 0
        reads = 0
        cross_msgs = 0
        next_frontier_parts: list[np.ndarray] = []

        # Each partition drains its internal activity before any
        # boundary exchange.
        for p in range(opts.n_partitions):
            local = frontier[partition[frontier] == p]
            for _sweep in range(opts.max_inner_sweeps):
                if local.size == 0:
                    break
                # Gather over all in-edges of the local frontier: a
                # partition-local set is a slice of |V|, never worth a
                # whole-graph kernel (DESIGN §13).
                acc, n_slots = kernels.gather(ctx, local)
                program.apply(ctx, local, acc)
                updates += int(local.size)
                reads += n_slots

                # Scatter on the callback path (the partition split
                # needs per-edge recipients); internal signals continue
                # the sweep, external ones wait for the superstep
                # barrier.
                _, nbr, mask = kernels.signal_edges(ctx, local)
                hit = nbr[mask]
                internal = hit[partition[hit] == p]
                external = hit[partition[hit] != p]
                cross_msgs += int(external.size)
                next_frontier_parts.append(external)
                local = sorted_unique_ids(internal, n)
            if local.size:
                # Inner-sweep cap hit: carry the residue into the
                # next superstep rather than dropping it.
                next_frontier_parts.append(local)

        program.on_iteration_end(ctx)
        counters = Counters(active=updates, updates=updates,
                            edge_reads=reads, messages=cross_msgs,
                            work=self._unit_work(run, updates))
        if next_frontier_parts:
            frontier = sorted_unique_ids(
                np.concatenate(next_frontier_parts), n)
        else:
            frontier = np.empty(0, dtype=np.int64)
        return counters, frontier
