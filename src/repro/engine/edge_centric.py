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
from repro._util.segments import sorted_unique_ids
from repro.engine.instrumentation import Counters
from repro.engine.kernels import FUSABLE_OPS
from repro.engine.loop import GASEngine, Run, RunOptions, next_frontier
from repro.engine.program import Direction, VertexProgram


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

    def _check_program(self, program: VertexProgram) -> None:
        if not getattr(program, "supports_edge_centric", False):
            raise ValidationError(
                f"{program.name} does not declare supports_edge_centric"
            )
        if program.gather_op not in FUSABLE_OPS:
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
        # X-Stream's filter: stream contributions of the vertices whose
        # values changed last iteration (initially, the seed frontier).
        # For monotone relaxations this yields values identical to the
        # vertex-centric full gather — any older source's improvement
        # was already streamed the iteration after it changed.
        run.source_live = np.zeros(run.graph.n_vertices, dtype=bool)
        run.source_live[run.frontier] = True

    def _step(self, run: Run, iteration: int, phase_times):
        program, ctx, kernels = run.program, run.ctx, run.kernels
        frontier, source_live = run.frontier, run.source_live
        timed = phase_times is not None
        mark = time.perf_counter() if timed else 0.0

        # ---- Stream phase: touch EVERY arc; act on live sources.
        # Degree-zero targets own no arc, so their rows hold the
        # reduction identity — isolated vertices never see a
        # divide-by-degree or a garbage accumulator row.
        acc = kernels.stream(ctx, source_live)
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
        center, nbr, mask = kernels.signal_edges(ctx, frontier)
        signaled = sorted_unique_ids(nbr[mask], run.graph.n_vertices)
        # Next iteration streams the vertices that just emitted
        # updates (a changed vertex improving no neighbor now can
        # never improve one later under a monotone reduction).
        source_live[:] = False
        source_live[center[mask]] = True  # a flag scatter: no set needed

        program.on_iteration_end(ctx)
        counters = Counters(
            active=int(frontier.size),
            updates=int(frontier.size),
            edge_reads=int(run.graph.in_src.size),  # the stream reads all arcs
            messages=int(mask.sum()),
            work=self._unit_work(run, frontier.size),
        )
        if timed:
            phase_times["scatter"] = time.perf_counter() - mark
        return counters, next_frontier(program, ctx, signaled)
