"""The synchronous GAS engine.

One iteration (paper Section 3.3):

1. **Gather** — every active vertex collects data through its gather
   edges; each collected edge is one *edge read*. Contributions are
   combined per vertex with the program's reduction.
2. **Apply** — every active vertex updates its value; each update is one
   *vertex update*, and the phase's cost is the *WORK* metric.
3. **Scatter** — every applied vertex may send a *signal* (message)
   along its scatter edges; signaled vertices form the next frontier.

The engine runs the same :class:`~repro.engine.program.VertexProgram`
in two modes:

``vectorized``
    All three phases operate on the entire frontier at once using CSR
    segment kernels (``concat_ranges`` + ``segmented_reduce``). This is
    the production mode.

``reference``
    Each phase loops over frontier vertices one at a time, with a
    barrier between phases (gather-all, then apply-all, then
    scatter-all) so synchronous semantics are preserved exactly. This is
    the oracle the test suite compares the vectorized mode against —
    traces must match counter-for-counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import (
    REDUCE_IDENTITY,
    concat_ranges,
    segmented_reduce,
)
from repro._util.timing import Stopwatch
from repro.engine.instrumentation import Counters, WorkModel
from repro.engine.kernels import FusedKernels
from repro.engine.loop import (
    GASEngine,
    Run,
    RunOptions,
    adjacency,
    next_frontier,
)
from repro.engine.program import Direction


@dataclass
class EngineOptions(RunOptions):
    """Engine configuration for one run."""

    #: ``"vectorized"`` (production) or ``"reference"`` (oracle).
    mode: str = "vectorized"
    #: Hard iteration cap; programs may converge earlier.
    max_iterations: int = 10_000
    #: WORK metric production: ``"unit"`` (deterministic) or ``"measured"``.
    work_model: str = "unit"
    #: Memory budget enforced against graph + program state estimates.
    memory_budget_bytes: int = 4 << 30
    #: Traversal direction policy: ``"auto"`` pulls when the active
    #: fraction reaches :attr:`direction_threshold`, ``"push"``/
    #: ``"pull"`` force one mode. Pull runs the fused dense CSR kernels
    #: (bit-identical to the callback path; DESIGN §13) and so needs a
    #: program that declares a fusable shape; any other program stays
    #: on the push path.
    direction: str = "auto"
    #: Active-fraction threshold at which ``"auto"`` switches from push
    #: (frontier-sliced) to pull (dense full-graph) traversal.
    direction_threshold: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("vectorized", "reference"):
            raise ValidationError(
                f"mode must be 'vectorized' or 'reference', got {self.mode!r}"
            )
        WorkModel(kind=self.work_model)  # validates
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.memory_budget_bytes < 1:
            raise ValidationError("memory_budget_bytes must be >= 1")
        if self.direction not in ("auto", "push", "pull"):
            raise ValidationError(
                f"direction must be 'auto', 'push' or 'pull', got "
                f"{self.direction!r}")
        if not 0.0 <= self.direction_threshold <= 1.0:
            raise ValidationError(
                "direction_threshold must be in [0, 1]")


class SynchronousEngine(GASEngine):
    """One step is one Gather → Apply → Scatter iteration over the
    frontier."""

    options_class = EngineOptions
    label = "synchronous"
    cap_reason = "max-iterations"

    def _cap(self, run: Run) -> int:
        return self.options.max_iterations

    def _setup(self, run: Run) -> None:
        # Fused dense kernels: built once per run (graph-derived caches
        # only, so checkpoint resume reconstructs them losslessly);
        # None when the program declares no fusable shape.
        run.kernels = (FusedKernels.build(run.program, run.graph)
                       if self.options.mode == "vectorized" else None)
        run.prev_direction = None

    def _step(self, run: Run, iteration: int, phase_times):
        opts = self.options
        frontier = run.frontier
        # Direction decision: a pure function of this iteration's
        # active fraction and the configured policy — stateless, so
        # a resumed run re-derives the identical push/pull sequence.
        active_fraction = frontier.size / run.graph.n_vertices
        pull = run.kernels is not None and (
            opts.direction == "pull"
            or (opts.direction == "auto"
                and active_fraction >= opts.direction_threshold))
        if run.obs is not None:
            mode_label = "pull" if pull else "push"
            run.obs.direction(
                mode=mode_label, active_fraction=active_fraction,
                switched=(run.prev_direction is not None
                          and run.prev_direction != mode_label))
            run.prev_direction = mode_label
        return self._iterate(run, phase_times, pull)

    # ------------------------------------------------------------------
    # One iteration
    # ------------------------------------------------------------------
    def _iterate(self, run: Run, phase_times: "dict[str, float] | None",
                 pull: bool) -> tuple[Counters, np.ndarray]:
        program, ctx, frontier = run.program, run.ctx, run.frontier
        kernels, graph = run.kernels, run.graph
        vectorized = self.options.mode == "vectorized"
        counters = Counters(active=int(frontier.size))
        timed = phase_times is not None
        mark = time.perf_counter() if timed else 0.0

        # ---- Gather -------------------------------------------------
        acc: np.ndarray | None = None
        if program.gather_dir is not Direction.NONE:
            if pull and kernels.can_gather:
                acc, n_reads = kernels.gather_frontier(ctx, frontier)
            else:
                gather = (self._gather_vectorized if vectorized
                          else self._gather_reference)
                acc, n_reads = gather(
                    program, ctx, frontier,
                    *adjacency(graph, program.gather_dir))
            counters.edge_reads += n_reads
        if timed:
            now = time.perf_counter()
            phase_times["gather"] = now - mark
            mark = now

        # ---- Apply --------------------------------------------------
        counters.updates += int(frontier.size)
        sw = Stopwatch()
        with sw:
            if vectorized:
                program.apply(ctx, frontier, acc)
            else:
                for i in range(frontier.size):
                    row = None
                    if acc is not None:
                        row = acc[i:i + 1]
                    program.apply(ctx, frontier[i:i + 1], row)
        if self.options.work_model == "measured":
            counters.work += sw.total
        if timed:
            now = time.perf_counter()
            phase_times["apply"] = now - mark
            mark = now

        # ---- Scatter ------------------------------------------------
        signaled = np.empty(0, dtype=np.int64)
        if program.scatter_dir is not Direction.NONE:
            if pull and kernels.can_scatter:
                signaled, n_msgs = kernels.scatter_frontier(ctx, frontier)
            else:
                scatter = (self._scatter_vectorized if vectorized
                           else self._scatter_reference)
                signaled, n_msgs = scatter(
                    program, ctx, frontier,
                    *adjacency(graph, program.scatter_dir))
            counters.messages += n_msgs

        program.on_iteration_end(ctx)
        # Unit work: engine-declared per-vertex cost plus whatever the
        # program reported via ctx.add_work anywhere in the iteration
        # (TC's intersections in gather, DD's slave solves in scatter).
        extra = ctx.drain_extra_work()
        if self.options.work_model != "measured":
            unit = program.apply_flops_per_vertex * frontier.size + extra
            counters.work += unit * self.options.unit_scale
        nxt = next_frontier(program, ctx, signaled)
        if timed:
            phase_times["scatter"] = time.perf_counter() - mark
        return counters, nxt

    # ------------------------------------------------------------------
    # Phase kernels
    # ------------------------------------------------------------------
    def _gather_vectorized(self, program, ctx, frontier, ptr, idx, eid):
        starts = ptr[frontier]
        ends = ptr[frontier + 1]
        counts = ends - starts
        slots = concat_ranges(starts, ends)
        nbr = idx[slots]
        center = np.repeat(frontier, counts)
        contributions = program.gather_edge(ctx, nbr, center, eid[slots])
        contributions = self._check_gather_shape(
            program, contributions, slots.size)
        acc = segmented_reduce(contributions, counts, program.gather_op)
        return acc, int(slots.size)

    def _gather_reference(self, program, ctx, frontier, ptr, idx, eid):
        width = program.gather_width
        shape = (frontier.size,) if width == 1 else (frontier.size, width)
        acc = np.full(shape, REDUCE_IDENTITY[program.gather_op],
                      dtype=program.gather_dtype)
        n_reads = 0
        for i, v in enumerate(frontier.tolist()):
            s, e = int(ptr[v]), int(ptr[v + 1])
            if e == s:
                continue
            slots = np.arange(s, e)
            nbr = idx[slots]
            center = np.full(nbr.size, v, dtype=np.int64)
            contributions = program.gather_edge(ctx, nbr, center, eid[slots])
            contributions = self._check_gather_shape(
                program, contributions, nbr.size)
            reduced = segmented_reduce(
                contributions, np.asarray([nbr.size]), program.gather_op)
            acc[i] = reduced[0]
            n_reads += nbr.size
        return acc, n_reads

    def _scatter_vectorized(self, program, ctx, frontier, ptr, idx, eid):
        starts = ptr[frontier]
        ends = ptr[frontier + 1]
        counts = ends - starts
        slots = concat_ranges(starts, ends)
        nbr = idx[slots]
        center = np.repeat(frontier, counts)
        mask = np.asarray(program.scatter_edges(ctx, center, nbr, eid[slots]),
                          dtype=bool)
        if mask.shape != (slots.size,):
            raise ValidationError(
                f"{program.name}.scatter_edges returned shape {mask.shape}, "
                f"expected ({slots.size},)"
            )
        signaled = np.unique(nbr[mask])
        return signaled, int(mask.sum())

    def _scatter_reference(self, program, ctx, frontier, ptr, idx, eid):
        signaled_parts: list[np.ndarray] = []
        n_msgs = 0
        for v in frontier.tolist():
            s, e = int(ptr[v]), int(ptr[v + 1])
            if e == s:
                continue
            slots = np.arange(s, e)
            nbr = idx[slots]
            center = np.full(nbr.size, v, dtype=np.int64)
            mask = np.asarray(program.scatter_edges(ctx, center, nbr,
                                                    eid[slots]), dtype=bool)
            if mask.shape != (nbr.size,):
                raise ValidationError(
                    f"{program.name}.scatter_edges returned shape "
                    f"{mask.shape}, expected ({nbr.size},)"
                )
            n_msgs += int(mask.sum())
            if mask.any():
                signaled_parts.append(nbr[mask])
        if signaled_parts:
            signaled = np.unique(np.concatenate(signaled_parts))
        else:
            signaled = np.empty(0, dtype=np.int64)
        return signaled, n_msgs

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_gather_shape(program, contributions, n_edges_sel):
        contributions = np.asarray(contributions, dtype=program.gather_dtype)
        width = program.gather_width
        expected = (n_edges_sel,) if width == 1 else (n_edges_sel, width)
        if contributions.shape != expected:
            raise ValidationError(
                f"{program.name}.gather_edge returned shape "
                f"{contributions.shape}, expected {expected}"
            )
        return contributions
