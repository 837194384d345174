"""The one run loop and the one options base behind the four engines.

Paper §3.3: vertex-, edge- and graph-centric execution conserve the
same basic behavior. In code: :meth:`GASEngine.run` owns everything a
run does around its steps — context and ``program.init``, the trace,
the health monitor, the cooperative deadline, telemetry, the stop
conditions and the finish — and an engine supplies only what is its
own: which programs it accepts (``_check_program``), its per-run setup
(``_setup``), one step — an iteration, a ≤|V|-pop round, a stream
pass, a superstep — (``_step``), its cap (``_cap``) and its labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro._util.errors import ResourceLimitError, ValidationError
from repro._util.segments import sorted_unique_ids
from repro._util.timing import Deadline
from repro.behavior.trace import IterationRecord, RunTrace
from repro.engine.context import Context
from repro.engine.health import (
    build_monitor,
    mark_degraded,
    validate_health_policy,
)
from repro.engine.instrumentation import UNIT_SCALE, Counters
from repro.engine.kernels import Kernels
from repro.engine.program import VertexProgram
from repro.generators.problem import ProblemInstance
from repro.obs.telemetry import engine_observer


@dataclass
class RunOptions:
    """The options every engine takes; each engine's options class
    inherits these and adds only its own fields."""

    #: Extra algorithm parameters forwarded into the Context.
    params: dict[str, Any] = field(default_factory=dict)
    #: Seed for the run-scoped RNG (stochastic programs only).
    seed: int = 0
    #: Run-health policy: ``"strict"`` (raise on detected pathologies),
    #: ``"degrade"`` (stop early, flag the trace), or ``"off"``.
    health_policy: str = "strict"
    #: Fault-injection spec (``"nan@3"``, ``"diverge@2"``, ``"counter@1"``)
    #: for exercising the health path; None in production.
    inject_fault: "str | None" = None
    #: Cooperative wall-clock budget checked once per step of the loop —
    #: the timeout fallback where SIGALRM cannot enforce one. None
    #: disables.
    wall_clock_budget_s: "float | None" = None

    def __post_init__(self) -> None:
        validate_health_policy(self.health_policy)
        if (self.wall_clock_budget_s is not None
                and self.wall_clock_budget_s <= 0):
            raise ValidationError(
                "wall_clock_budget_s must be positive or None")


def canonical_frontier(vids: np.ndarray, n_vertices: int) -> np.ndarray:
    """Sorted unique in-range int64 vertex ids (a fresh array). The
    range check comes first: ``sorted_unique_ids`` indexes with them."""
    vids = np.asarray(vids, dtype=np.int64).ravel()
    if vids.size and (vids.min() < 0 or vids.max() >= n_vertices):
        raise ValidationError("frontier vertex ids out of range")
    return sorted_unique_ids(vids, n_vertices)


def next_frontier(program: VertexProgram, ctx: Context,
                  signaled: np.ndarray) -> np.ndarray:
    """The program's pick for the next frontier, canonical. ``signaled``
    must be a sorted unique in-range array (every engine scatter path
    produces one): re-canonicalizing it when the program returns it
    untouched would only rebuild the hot loop's largest intermediate."""
    nxt = program.select_next_frontier(ctx, signaled)
    if nxt is not signaled:
        nxt = canonical_frontier(nxt, ctx.graph.n_vertices)
    return nxt


class Run:
    """One run's state, shared by the loop and the engine's step. The
    engine's ``_setup`` adds its own attributes (partition, scheduler,
    ...)."""

    #: Set by a step the cap interrupted part-way (an asynchronous
    #: round cut by ``max_steps``): its counters are recorded, but it is
    #: no step boundary, so nothing is injected, observed or checked.
    cut_short = False

    def __init__(self, program: VertexProgram, ctx: Context,
                 deadline: Deadline, obs,
                 frontier: "np.ndarray | None") -> None:
        self.program = program
        self.ctx = ctx
        self.graph = ctx.graph
        #: How this run's gather / scatter / stream are evaluated.
        self.kernels = Kernels(program, ctx.graph)
        self.deadline = deadline
        self.obs = obs
        #: The active set the next step runs on; None where the engine
        #: has no frontier (asynchronous: the scheduler is the state).
        self.frontier = frontier


class GASEngine:
    """Executes one vertex program on one problem instance: the loop
    all four engines share."""

    options_class: ClassVar[type]
    #: ``RunTrace.engine`` and telemetry label.
    label: ClassVar[str]
    #: Stop reason when the cap, not the computation, ends the run.
    cap_reason: ClassVar[str]
    #: Stop reason when no work is left.
    drained_reason: ClassVar[str] = "frontier-empty"
    #: Telemetry phase label of a step the engine does not time in
    #: parts; None when ``_step`` fills the phase times itself.
    step_phase: ClassVar["str | None"] = None

    def __init__(self, options=None) -> None:
        self.options = options or self.options_class()

    # ------------------------------------------------------------------
    # What an engine supplies
    # ------------------------------------------------------------------
    def _check_program(self, program: VertexProgram) -> None:
        """Raise ValidationError for a program this engine cannot run."""

    def _cap(self, run: Run) -> int:
        """Steps the loop may take, counted from step 0."""
        raise NotImplementedError

    def _setup(self, run: Run) -> None:
        """Per-run setup; ``run.frontier`` is the canonical initial
        frontier ``program.init`` returned."""
        raise NotImplementedError

    def _step(self, run: Run, iteration: int,
              phase_times: "dict[str, float] | None",
              ) -> "tuple[Counters, np.ndarray | None]":
        """One step on ``run.frontier``: its counters and the next
        frontier. Fills ``phase_times`` (when not None) unless the
        engine declares a :attr:`step_phase`."""
        raise NotImplementedError

    def _drained(self, run: Run) -> bool:
        return run.frontier.size == 0

    def _unit_work(self, run: Run, n_applied: int) -> float:
        """Unit-model WORK of applying ``n_applied`` vertices: the
        declared per-vertex cost plus whatever the program reported via
        ``ctx.add_work`` since the last drain (TC's intersections in
        gather, DD's slave solves in scatter), scaled."""
        return ((run.program.apply_flops_per_vertex * n_applied
                 + run.ctx.drain_extra_work()) * UNIT_SCALE)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram,
            problem: ProblemInstance) -> RunTrace:
        """Run ``program`` to convergence (or the engine's cap).

        Raises
        ------
        ResourceLimitError
            If the engine has a memory budget and the graph plus the
            program's estimated state exceed it (this is the paper's
            AD-at-largest-size failure mode).
        """
        self._check_program(program)
        opts = self.options
        label = self.label
        ctx = Context(problem, params=opts.params, seed=opts.seed)
        graph = problem.graph

        budget = getattr(opts, "memory_budget_bytes", None)
        if budget is not None:
            required = graph.memory_bytes() + program.state_bytes(ctx)
            if required > budget:
                raise ResourceLimitError(
                    f"{program.name} on {problem.label} needs ~{required:,} "
                    f"bytes of state, exceeding the budget of "
                    f"{budget:,} bytes",
                    required_bytes=required,
                    budget_bytes=budget,
                )

        started = time.perf_counter()
        initial = canonical_frontier(program.init(ctx), graph.n_vertices)
        ctx.drain_extra_work()  # init-phase work is not an iteration's WORK

        trace = RunTrace(
            algorithm=program.name,
            graph_params=dict(problem.params),
            domain=problem.domain,
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            work_model=getattr(opts, "work_model", "unit"),
            engine=label,
        )
        monitor = build_monitor(opts)
        obs = engine_observer()
        run = Run(program, ctx, Deadline(opts.wall_clock_budget_s), obs,
                  initial)
        self._setup(run)

        stop_reason = self.cap_reason
        for iteration in range(self._cap(run)):
            run.deadline.check()
            if self._drained(run):
                stop_reason = self.drained_reason
                trace.converged = True
                break
            ctx.iteration = iteration
            active = run.frontier
            # Telemetry is observational only: phase timing never feeds
            # back into counters, so the unit work model stays
            # bit-reproducible.
            timed = obs is not None
            phase_times: "dict[str, float] | None" = {} if timed else None
            obs_started = time.perf_counter() if timed else 0.0
            counters, run.frontier = self._step(run, iteration, phase_times)
            if not run.cut_short:
                monitor.inject_state_fault(program, iteration)
                counters.edge_reads = monitor.inject_edge_reads(
                    counters.edge_reads, iteration)
            trace.iterations.append(IterationRecord(
                iteration=iteration,
                active=counters.active,
                updates=counters.updates,
                edge_reads=counters.edge_reads,
                messages=counters.messages,
                work=counters.work,
            ))
            if run.cut_short:
                break
            if obs is not None:
                seconds = time.perf_counter() - obs_started
                if self.step_phase is not None:
                    phase_times[self.step_phase] = seconds
                obs.iteration(seconds, phase_times)
            verdict = monitor.observe(program, iteration=iteration,
                                      frontier=active, work=counters.work)
            if verdict is not None:
                mark_degraded(trace, verdict)
                break
            if program.converged(ctx):
                stop_reason = "converged"
                trace.converged = True
                break
            if self._drained(run):
                # Drained work ends the run *now*, not at the top of a
                # next loop pass that the cap might never grant —
                # otherwise a run converging exactly at the cap would
                # misreport the cap as its stop reason.
                stop_reason = self.drained_reason
                trace.converged = True
                break

        if obs is not None:
            obs.finish()
        if not trace.degraded:
            trace.stop_reason = stop_reason
        trace.result = program.result(ctx)
        trace.wall_time_s = time.perf_counter() - started
        return trace
