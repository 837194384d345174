"""Asynchronous GAS engine (GraphLab v2.2's other execution mode).

The paper runs everything in the *synchronous* mode (Section 3.1); the
platform it models also offers asynchronous execution, where each
vertex runs gather→apply→scatter immediately when scheduled and its
updates are visible to later vertices at once. This module provides
that mode as a sequential simulation with the same
:class:`~repro.engine.program.VertexProgram` API and the same behavior
counters, so users can study how execution policy (not just algorithm
and graph) shifts behavior — a dimension the paper leaves to future
work.

Semantics
---------
- A **scheduler** holds pending vertices: ``fifo`` (GraphLab's sweep
  scheduler) or ``priority`` (GraphLab's priority scheduler, ordered by
  the program's :meth:`~AsyncCapable.signal_priority`).
- One **step** = pop a vertex, gather over its gather edges (reading
  *current* neighbor state), apply, scatter; signaled neighbors are
  enqueued (duplicate signals collapse, as in GraphLab).
- The run ends when the scheduler drains or ``max_steps`` is hit.
- For trace compatibility, steps are grouped into *rounds* of up to
  ``|V|`` steps; each round becomes one
  :class:`~repro.behavior.trace.IterationRecord` whose ``active`` is
  the number of steps in the round. Async traces are therefore
  comparable to synchronous ones in volume (updates, edge reads,
  messages) but not in the notion of a barrier.

Only *signal-driven* programs are meaningful here: always-active
programs (AD, KM, ...) rely on the synchronous engine's
``select_next_frontier`` override and would never drain. Programs
opt in by setting ``supports_async = True``.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro._util.errors import ValidationError
from repro.engine.instrumentation import Counters, WorkModel
from repro.engine.loop import GASEngine, Run, RunOptions
from repro.engine.program import VertexProgram

SCHEDULERS = ("fifo", "priority")


@dataclass
class AsyncEngineOptions(RunOptions):
    """Configuration of an asynchronous run (health checks and the
    wall-clock budget work at *round* granularity)."""

    #: ``fifo`` or ``priority`` (needs the program's signal_priority).
    scheduler: str = "fifo"
    #: Hard cap on update steps (``rounds × |V|`` equivalent).
    max_steps: int = 10_000_000
    #: WORK model, as in the synchronous engine.
    work_model: str = "unit"
    memory_budget_bytes: int = 4 << 30

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.scheduler not in SCHEDULERS:
            raise ValidationError(
                f"scheduler must be one of {SCHEDULERS}, got "
                f"{self.scheduler!r}"
            )
        WorkModel(kind=self.work_model)  # validates
        if self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1")


class _FifoScheduler:
    """FIFO with signal collapsing."""

    def __init__(self, n: int) -> None:
        self.queue: deque[int] = deque()
        self.queued = np.zeros(n, dtype=bool)

    def push(self, v: int, priority: float = 1.0) -> None:
        if not self.queued[v]:
            self.queued[v] = True
            self.queue.append(v)

    def pop(self) -> int:
        v = self.queue.popleft()
        self.queued[v] = False
        return v

    def __len__(self) -> int:
        return len(self.queue)


class _PriorityScheduler:
    """Max-priority heap with signal collapsing (highest priority first;
    re-signaling with a higher priority promotes the entry)."""

    def __init__(self, n: int) -> None:
        self.heap: list[tuple[float, int, int]] = []
        self.best = np.full(n, -np.inf)
        self.queued = np.zeros(n, dtype=bool)
        self._tie = 0

    def push(self, v: int, priority: float = 1.0) -> None:
        if self.queued[v] and priority <= self.best[v]:
            return
        self.best[v] = max(self.best[v], priority)
        self.queued[v] = True
        self._tie += 1
        heapq.heappush(self.heap, (-priority, self._tie, v))

    def pop(self) -> int:
        while self.heap:
            _negp, _tie, v = heapq.heappop(self.heap)
            if self.queued[v]:
                self.queued[v] = False
                self.best[v] = -np.inf
                return v
        raise IndexError("pop from empty scheduler")

    def __len__(self) -> int:
        return int(self.queued.sum())


class AsynchronousEngine(GASEngine):
    """Sequential simulation of asynchronous GAS execution: one step of
    the loop is one round of up to ``|V|`` scheduler pops."""

    options_class = AsyncEngineOptions
    label = "asynchronous"
    cap_reason = "max-steps"
    drained_reason = "scheduler-drained"
    # Async phases interleave per vertex, so telemetry times the round.
    step_phase = "round"

    def _check_program(self, program: VertexProgram) -> None:
        if not getattr(program, "supports_async", False):
            raise ValidationError(
                f"{program.name} does not declare supports_async; only "
                "signal-driven programs are meaningful asynchronously"
            )

    def _cap(self, run: Run) -> int:
        # In rounds: every round but the last is exactly |V| pops.
        return -(-self.options.max_steps // max(run.graph.n_vertices, 1))

    def _setup(self, run: Run) -> None:
        program, ctx, n = run.program, run.ctx, run.graph.n_vertices
        run.scheduler = (_FifoScheduler(n)
                         if self.options.scheduler == "fifo"
                         else _PriorityScheduler(n))
        for v in run.frontier.tolist():
            run.scheduler.push(v, self._priority(program, ctx, v))
        # No frontier in the async signature the health monitor sees: a
        # round is an arbitrary |V|-pop slice of the scheduler churn, so
        # its vertex set varies even when the computation makes no
        # progress. The state arrays capture all progress.
        run.frontier = None
        run.steps = 0

    def _drained(self, run: Run) -> bool:
        return not len(run.scheduler)

    def _step(self, run: Run, iteration: int, phase_times):
        scheduler = run.scheduler
        n = run.graph.n_vertices
        budget = min(n, self.options.max_steps - run.steps)
        counters = Counters()
        while counters.updates < budget and len(scheduler):
            if run.steps % 256 == 0:
                run.deadline.check()
            reads, msgs, work = self._vertex_step(run, scheduler.pop())
            run.steps += 1
            counters.updates += 1
            counters.edge_reads += reads
            counters.messages += msgs
            counters.work += work
        counters.active = counters.updates
        if counters.updates < n and len(scheduler):
            run.cut_short = True  # max_steps interrupted the round
        else:
            run.program.on_iteration_end(run.ctx)
        return counters, None

    def _vertex_step(self, run: Run, v: int) -> tuple[int, int, float]:
        """Gather → apply → scatter for one popped vertex."""
        program, ctx, kernels = run.program, run.ctx, run.kernels
        acc, reads = kernels.gather_one(ctx, v)

        t0 = time.perf_counter()
        program.apply(ctx, np.asarray([v], dtype=np.int64), acc)
        elapsed = time.perf_counter() - t0
        work = self._unit_work(run, 1)
        if self.options.work_model == "measured":
            work = elapsed

        signaled = kernels.signaled_by(ctx, v)
        for u in signaled.tolist():
            run.scheduler.push(u, self._priority(program, ctx, u))
        return reads, signaled.size, work

    @staticmethod
    def _priority(program, ctx, v) -> float:
        hook = getattr(program, "signal_priority", None)
        if hook is None:
            return 1.0
        return float(hook(ctx, v))
