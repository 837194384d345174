"""Edge-centric execution (X-Stream-style), for the paper's §3.3 claim.

"There are also other computation models used in current
graph-processing systems (edge-centric model [X-Stream] and
graph-centric model), but the basic behavior of graph computation is
conserved — transferring information through edges, performing
computation on an independent unit, and activations."

This engine executes the same :class:`~repro.engine.program.VertexProgram`
edge-centrically: every iteration **streams the full arc list** (that
is X-Stream's defining property — sequential edge streaming instead of
per-vertex indexed gathers), computes contributions only for arcs whose
source changed last iteration, scatter-adds them into per-vertex
accumulators, and applies. Consequences, which the ablation benchmark
verifies against the synchronous engine:

- *results* agree for monotone gather programs (CC, SSSP): same fixed
  point, same per-iteration frontier;
- UPDT and MSG counters are conserved iteration-for-iteration;
- EREAD differs by design: the stream touches all ``n_arcs`` arcs every
  iteration regardless of frontier size — the edge-centric cost shape.

Only programs whose gather is commutative over the *source-active*
edge subset are eligible (min/max monotone relaxations); they declare
``supports_edge_centric = True``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import REDUCE_IDENTITY, concat_ranges
from repro.engine.instrumentation import Counters
from repro.engine.kernels import FusedKernels
from repro.engine.loop import GASEngine, Run, RunOptions, next_frontier
from repro.engine.program import Direction, VertexProgram

_REDUCE_AT = {
    "min": np.minimum.at,
    "max": np.maximum.at,
    "sum": np.add.at,
}


@dataclass
class EdgeCentricOptions(RunOptions):
    """Configuration of an edge-centric run."""

    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")


class EdgeCentricEngine(GASEngine):
    """Streams all arcs per iteration; updates targets of active sources."""

    options_class = EdgeCentricOptions
    label = "edge-centric"
    cap_reason = "max-iterations"
    snapshot_keys = ("frontier", "source_live")

    def _check_program(self, program: VertexProgram) -> None:
        if not getattr(program, "supports_edge_centric", False):
            raise ValidationError(
                f"{program.name} does not declare supports_edge_centric"
            )
        if program.gather_op not in _REDUCE_AT:
            raise ValidationError(
                f"edge-centric execution needs a scatter-add-able "
                f"reduction, got {program.gather_op!r}"
            )
        if program.gather_width != 1:
            raise ValidationError("edge-centric execution supports "
                                  "scalar gathers only")
        # Gather direction IN means "target collects from source".
        if program.gather_dir is not Direction.IN:
            raise ValidationError("edge-centric execution assumes "
                                  "gather_dir == Direction.IN")

    def _cap(self, run: Run) -> int:
        return self.options.max_iterations

    def _setup(self, run: Run) -> None:
        graph = run.graph
        # The full arc list in (source, target, eid) form, as streamed:
        # (graph.in_src, run.tgt, graph.in_eid). Degree-zero targets own
        # no slots of this expansion (their in_degree repeat count is 0)
        # and every accumulator path below fills them with the
        # reduction identity — isolated vertices never see a
        # divide-by-degree or a garbage accumulator row.
        run.tgt = np.repeat(np.arange(graph.n_vertices, dtype=np.int64),
                            graph.in_degree)
        # Fused stream: when the program declares a fusable gather
        # shape, the per-arc contributions and the per-target reduction
        # collapse into one dense CSR segment kernel over cached
        # offsets. Dead-source slots are pinned to the reduction
        # identity, which min/max absorb exactly and which leaves sum's
        # float64 bits unchanged — so the fused stream is bit-identical
        # to the ``ufunc.at`` scatter-add of the callback path, which
        # programs without a declared shape keep.
        kernels = FusedKernels.build(run.program, graph)
        run.kernels = (kernels if kernels is not None and kernels.can_gather
                       else None)
        # X-Stream's filter: stream contributions of the vertices whose
        # values changed last iteration (initially, the seed frontier).
        # For monotone relaxations this yields values identical to the
        # vertex-centric full gather — any older source's improvement
        # was already streamed the iteration after it changed.
        run.source_live = np.zeros(graph.n_vertices, dtype=bool)
        run.source_live[run.frontier] = True

    def _step(self, run: Run, iteration: int, phase_times):
        program, ctx, graph = run.program, run.ctx, run.graph
        frontier, source_live = run.frontier, run.source_live
        src = graph.in_src
        timed = phase_times is not None
        mark = time.perf_counter() if timed else 0.0

        # ---- Stream phase: touch EVERY arc; act on live sources.
        live = source_live[src]
        any_live = live.any()
        if any_live and run.kernels is not None:
            acc = run.kernels.stream_dense(ctx, live)
        else:
            acc = np.full(graph.n_vertices,
                          REDUCE_IDENTITY[program.gather_op])
            if any_live:
                tgt = run.tgt[live]
                contributions = np.asarray(
                    program.gather_edge(ctx, src[live], tgt,
                                        graph.in_eid[live]),
                    dtype=np.float64)
                _REDUCE_AT[program.gather_op](acc, tgt, contributions)
        if timed:
            now = time.perf_counter()
            phase_times["stream"] = now - mark
            mark = now

        # ---- Apply on the synchronous frontier (same set the
        # synchronous engine would apply to).
        program.apply(ctx, frontier, acc[frontier])
        if timed:
            now = time.perf_counter()
            phase_times["apply"] = now - mark
            mark = now

        # ---- Scatter: same signal semantics as the sync engine.
        starts = graph.out_ptr[frontier]
        ends = graph.out_ptr[frontier + 1]
        slots = concat_ranges(starts, ends)
        nbr = graph.out_dst[slots]
        center = np.repeat(frontier, ends - starts)
        mask = np.asarray(
            program.scatter_edges(ctx, center, nbr,
                                  graph.out_eid[slots]), dtype=bool)
        signaled = np.unique(nbr[mask])
        # Next iteration streams the vertices that just emitted
        # updates (a changed vertex improving no neighbor now can
        # never improve one later under a monotone reduction).
        source_live[:] = False
        source_live[np.unique(center[mask])] = True

        program.on_iteration_end(ctx)
        work = (program.apply_flops_per_vertex * frontier.size
                + ctx.drain_extra_work()) * self.options.unit_scale
        counters = Counters(
            active=int(frontier.size),
            updates=int(frontier.size),
            edge_reads=int(src.size),  # the stream reads all arcs
            messages=int(mask.sum()),
            work=work,
        )
        if timed:
            phase_times["scatter"] = time.perf_counter() - mark
        return counters, next_frontier(program, ctx, signaled)
