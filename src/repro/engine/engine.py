"""The synchronous GAS engine.

One iteration (paper Section 3.3):

1. **Gather** — every active vertex collects data through its gather
   edges; each collected edge is one *edge read*. Contributions are
   combined per vertex with the program's reduction.
2. **Apply** — every active vertex updates its value; each update is one
   *vertex update*, and the phase's cost is the *WORK* metric.
3. **Scatter** — every applied vertex may send a *signal* (message)
   along its scatter edges; signaled vertices form the next frontier.

All three phases operate on the entire frontier at once; how gather
and scatter are evaluated — frontier-sliced callbacks (**push**) or
the fused dense CSR kernels (**pull**) — is
:class:`~repro.engine.kernels.Kernels`' business, steered only by this
engine's per-iteration decision: a step pulls when the program
declares a fusable shape and the frontier's active fraction reaches
:data:`PULL_ACTIVE_FRACTION`. This is the one place a fused kernel
runs (DESIGN §13). The vertex-at-a-time oracle the test suite compares
this engine against, counter for counter, is
``tests/engine_oracle.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro._util.errors import ValidationError
from repro._util.timing import Stopwatch
from repro.engine.instrumentation import Counters, WorkModel
from repro.engine.loop import GASEngine, Run, RunOptions, next_frontier

#: Active fraction of |V| from which a step of a fusable program pulls
#: (one dense kernel over the whole graph) instead of pushing (slicing
#: the frontier's slots out): below it the slices touch fewer slots
#: than the whole-graph reduction would. Both evaluations are
#: bit-identical, so the number moves wall time only.
PULL_ACTIVE_FRACTION = 0.25


@dataclass
class EngineOptions(RunOptions):
    """Engine configuration for one run."""

    #: Hard iteration cap; programs may converge earlier.
    max_iterations: int = 10_000
    #: WORK metric production: ``"unit"`` (deterministic) or ``"measured"``.
    work_model: str = "unit"
    #: Memory budget enforced against graph + program state estimates.
    memory_budget_bytes: int = 4 << 30

    def __post_init__(self) -> None:
        super().__post_init__()
        WorkModel(kind=self.work_model)  # validates
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.memory_budget_bytes < 1:
            raise ValidationError("memory_budget_bytes must be >= 1")


class SynchronousEngine(GASEngine):
    """One step is one Gather → Apply → Scatter iteration over the
    frontier."""

    options_class = EngineOptions
    label = "synchronous"
    cap_reason = "max-iterations"

    def _cap(self, run: Run) -> int:
        return self.options.max_iterations

    def _setup(self, run: Run) -> None:
        run.prev_direction = None

    def _step(self, run: Run, iteration: int, phase_times):
        opts = self.options
        program, ctx, frontier = run.program, run.ctx, run.frontier
        kernels = run.kernels
        # Direction decision: a pure function of this iteration's
        # active fraction, so it carries no state between steps.
        active_fraction = frontier.size / run.graph.n_vertices
        pull = kernels.fused and active_fraction >= PULL_ACTIVE_FRACTION
        if run.obs is not None:
            mode_label = "pull" if pull else "push"
            run.obs.direction(
                mode=mode_label, active_fraction=active_fraction,
                switched=(run.prev_direction is not None
                          and run.prev_direction != mode_label))
            run.prev_direction = mode_label

        counters = Counters(active=int(frontier.size),
                            updates=int(frontier.size))
        timed = phase_times is not None
        mark = time.perf_counter() if timed else 0.0

        acc, counters.edge_reads = kernels.gather(ctx, frontier, dense=pull)
        if timed:
            now = time.perf_counter()
            phase_times["gather"] = now - mark
            mark = now

        sw = Stopwatch()
        with sw:
            program.apply(ctx, frontier, acc)
        if timed:
            now = time.perf_counter()
            phase_times["apply"] = now - mark
            mark = now

        signaled, counters.messages = kernels.scatter(ctx, frontier,
                                                      dense=pull)
        program.on_iteration_end(ctx)
        # Drained under either work model: what the program reported
        # this iteration must not leak into the next one's WORK.
        unit = self._unit_work(run, frontier.size)
        counters.work = sw.total if opts.work_model == "measured" else unit
        nxt = next_frontier(program, ctx, signaled)
        if timed:
            phase_times["scatter"] = time.perf_counter() - mark
        return counters, nxt
