"""Supervised DAG scheduler for corpus builds.

The flat ``ProcessPoolExecutor`` + ``as_completed`` dispatch this
module replaces had no notion of task ownership: one
``BrokenProcessPool`` aborted the whole build and a hung worker
stalled it forever. Following the Pregel-style plan/execute/update
loop (every task carries a first-class status state machine), the
build is now an explicit DAG of **materialize → run** tasks driven by
a supervisor:

- **plan** — ready tasks (deps terminal, backoff elapsed) are leased
  to idle workers; a task holds at most one lease, and each lease
  carries an epoch and a deadline.
- **execute** — workers heartbeat while executing, into a shared
  (lease epoch, time) array each (see
  :mod:`repro.experiments.worksite`); a beat stamped with the lease's
  epoch renews its deadline, so slow-but-alive cells never expire
  while dead or stopped workers do. (A livelocked or blocked cell
  still beats: its wall-clock limit ends it, as a ``timeout``.)
- **update** — results transition tasks to ``done``/``failed``; an
  expired lease is revoked and the task re-dispatched with full-jitter
  backoff, to run the whole cell again. After K expiries the
  cell is quarantined as ``quarantined-poison`` instead of burning a
  K+1th worker.

That is the one failure rule, whatever the crew's health: a lost
lease costs its cell one unit of that cell's poison budget, and
nothing else. A cell is never executed in the loop's own process,
because a cell that kills whatever runs it would take the build with
it; a crew whose every worker dies ends with the affected cells
``quarantined-poison`` (exit 3), as a distributed build does. Each
worker talks to the loop over its own pipe, so a dying worker can lose
only its own cell.

The loop itself is :class:`CrewLoop`, and there is one of it: a
:class:`Supervisor` (this machine's multi-worker build) and a
:class:`~repro.experiments.nodeagent.NodeAgent` (one node of a
distributed build) are the same ``tick`` over the same board, crew and
graph plane, differing only in where tasks come from and where results
go.

Every transition is emitted on the existing telemetry plane.
Effectively-exactly-once store semantics come from the existing
content-addressed :class:`~repro.experiments.results.ResultStore`
keys: a revoked lease whose worker was *slow rather than dead* may
complete concurrently with its replacement, but both write the same
deterministic bytes to the same key through atomic ``os.replace``, and
the supervisor accepts the first completion and drops the rest.

The task board (:class:`TaskBoard`) is deliberately pure — no
processes, no wall clock of its own — so property tests can drive it
through randomized kill/stall/complete schedules and assert every task
reaches a terminal state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.experiments.config import (
    CREW_LEASE_TIMEOUT_S,
    MAX_LEASE_EXPIRIES,
    BuildOptions,
)
from repro.experiments.failures import RunFailure, full_jitter_backoff
from repro.experiments.worksite import (
    ResultEnvelope,
    TaskEnvelope,
    WorkerCrew,
)

#: Task status state machine (the LangGraph-Pregel shape): a task is
#: planned, owned, then terminal — and never leaves a terminal state.
TERMINAL_STATES: frozenset = frozenset({"done", "failed", "quarantined"})
_ALLOWED_TRANSITIONS: dict = {
    "pending": frozenset({"leased"}),
    "leased": frozenset({"pending", "done", "failed", "quarantined"}),
    "done": frozenset(),
    "failed": frozenset(),
    "quarantined": frozenset(),
}

#: The supervisor re-owns a late completion under this worker id.
SUPERVISOR_WORKER = -1

#: Ceiling of the full-jitter backoff before a revoked task is
#: re-dispatched: the one requeue cap.
BACKOFF_CAP_S = 5.0


class SchedulerError(RuntimeError):
    """An illegal task transition — a scheduler bug, not a task fault."""


@dataclass(frozen=True)
class Lease:
    """One grant of a task to a worker, with a renewable deadline."""

    worker: int
    epoch: int
    deadline: float
    granted_at: float


@dataclass
class Task:
    """One node of the build DAG."""

    id: str
    kind: str  # "materialize" | "run"
    payload: Any = None
    deps: tuple = ()
    status: str = "pending"
    #: The one live grant of this task, while it is ``leased``.
    lease: "Lease | None" = None
    #: Leases lost to expiry or worker death — the poison budget.
    lease_expiries: int = 0
    #: Earliest re-dispatch time after a revoked lease (jitter backoff).
    not_before: float = 0.0
    result: Any = None
    failure: "RunFailure | None" = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES


class TaskBoard:
    """Pure plan/lease/update state machine over the build DAG.

    All timing is injected (``now`` parameters), so the board is
    driveable from property tests without processes or sleeps. The
    supervisor is the only writer; workers talk to it through results
    and heartbeats, never through the board.
    """

    def __init__(self, *, lease_timeout_s: float = CREW_LEASE_TIMEOUT_S,
                 max_lease_expiries: int = MAX_LEASE_EXPIRIES,
                 backoff_base_s: float = 0.05,
                 on_transition: "Callable | None" = None) -> None:
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if max_lease_expiries < 1:
            raise ValueError("max_lease_expiries must be >= 1")
        self.lease_timeout_s = lease_timeout_s
        self.max_lease_expiries = max_lease_expiries
        self.backoff_base_s = backoff_base_s
        self.on_transition = on_transition
        #: In insertion order, which is dispatch order.
        self.tasks: "dict[str, Task]" = {}
        self._epoch = 0
        self.total_lease_expiries = 0

    # ------------------------------------------------------------------
    # DAG construction
    # ------------------------------------------------------------------
    def add(self, task: Task) -> Task:
        if task.id in self.tasks:
            raise SchedulerError(f"duplicate task id {task.id!r}")
        for dep in task.deps:
            if dep not in self.tasks:
                raise SchedulerError(
                    f"task {task.id!r} depends on unknown {dep!r}")
        self.tasks[task.id] = task
        return task

    def discard(self, task_id: str) -> None:
        """Forget a terminal task, so that its id can be planned again
        (a node re-claims a cell it finished once its publish was
        fenced, or the store lost the entry)."""
        if not self._require(task_id).terminal:
            raise SchedulerError(
                f"task {task_id!r} is still in flight; cannot discard")
        del self.tasks[task_id]

    def get(self, task_id: str) -> "Task | None":
        return self.tasks.get(task_id)

    # ------------------------------------------------------------------
    # Plan
    # ------------------------------------------------------------------
    def ready(self, now: float) -> "list[Task]":
        """Dispatchable tasks, in insertion order: pending, past their
        backoff gate, with every dependency terminal. (Dependencies are
        ordering edges, not success edges — a failed materialize leaves
        its cells runnable; regenerating is then the cell's own
        problem, recorded against the cell.)"""
        out = []
        for task in self.tasks.values():
            if task.status != "pending" or task.not_before > now:
                continue
            if all(self.tasks[d].terminal for d in task.deps):
                out.append(task)
        return out

    # ------------------------------------------------------------------
    # Lease
    # ------------------------------------------------------------------
    def lease(self, task_id: str, worker: int, now: float) -> int:
        task = self._require(task_id)
        self._transition(task, "leased", worker=worker)
        self._epoch += 1
        task.lease = Lease(worker=worker, epoch=self._epoch,
                           deadline=now + self.lease_timeout_s,
                           granted_at=now)
        return self._epoch

    def renew(self, worker: int, task_id: str, epoch: int,
              ts: float) -> bool:
        """Heartbeat renewal: push the matching lease's deadline out to
        ``ts + lease_timeout``. Beats for unknown/stale leases are
        ignored (the worker is executing something already revoked)."""
        task = self.tasks.get(task_id)
        lease = task.lease if task is not None else None
        if lease is None or (lease.worker, lease.epoch) != (worker, epoch):
            return False
        task.lease = replace(
            lease, deadline=max(lease.deadline, ts + self.lease_timeout_s))
        return True

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    def complete(self, task_id: str, result: Any) -> bool:
        """First completion wins: returns False (result dropped) when
        the task already reached a terminal state — the stale result of
        a revoked lease. Completions from revoked leases of a
        *non-terminal* task are accepted: the store write they performed
        is byte-identical to what the replacement would produce, so
        taking the early answer only saves work."""
        task = self._require(task_id)
        if task.terminal:
            return False
        if task.status == "pending":
            # A revoked attempt finished after all: re-own then finish
            # so the machine never jumps pending -> done directly.
            self._transition(task, "leased", worker=SUPERVISOR_WORKER)
        task.result = result
        task.lease = None
        self._transition(task, "done")
        return True

    def fail(self, task_id: str, epoch: int, failure: RunFailure) -> bool:
        """Record a harness failure from a *live* lease. Stale failures
        (their lease was revoked) are dropped: the replacement attempt
        owns the cell's outcome now."""
        task = self._require(task_id)
        if task.lease is None or task.lease.epoch != epoch:
            return False
        task.failure = failure
        task.lease = None
        self._transition(task, "failed", failure_kind=failure.kind)
        return True

    def expired_leases(self, now: float) -> "list[tuple[Task, Lease]]":
        """Every lease past its deadline, without revoking anything —
        the supervisor decides (it must also kill the hung worker)."""
        return [(task, task.lease) for task in self.leased()
                if task.lease.deadline < now]

    def revoke_lease(self, task: Task, lease: Lease, now: float,
                     reason: str = "lease-expired") -> str:
        """Take a lease away from its (dead or hung) worker.

        Returns what happened to the task: ``"requeued"`` (re-dispatch
        after jitter backoff) or ``"quarantined"`` (poison budget
        spent). A lease the task no longer holds returns ``"stale"``.
        """
        if task.lease != lease:
            return "stale"
        task.lease = None
        task.lease_expiries += 1
        self.total_lease_expiries += 1
        task.failure = RunFailure(
            kind="lease-expired",
            message=(f"lease epoch {lease.epoch} on worker "
                     f"{lease.worker} lost ({reason}); "
                     f"{task.lease_expiries}/{self.max_lease_expiries} "
                     f"expiries"),
            attempts=task.lease_expiries)
        if task.lease_expiries >= self.max_lease_expiries:
            task.failure = RunFailure.poison("worker", task.lease_expiries,
                                             reason)
            self._transition(task, "quarantined", reason=reason)
            return "quarantined"
        backoff = full_jitter_backoff(
            self.backoff_base_s, task.lease_expiries, key=task.id,
            cap_s=BACKOFF_CAP_S)
        task.not_before = now + backoff
        self._transition(task, "pending", reason=reason,
                         backoff_s=backoff)
        return "requeued"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def leased(self) -> "list[Task]":
        return [t for t in self.tasks.values() if t.status == "leased"]

    def all_terminal(self) -> bool:
        return all(t.terminal for t in self.tasks.values())

    # ------------------------------------------------------------------
    def _require(self, task_id: str) -> Task:
        task = self.tasks.get(task_id)
        if task is None:
            raise SchedulerError(f"unknown task {task_id!r}")
        return task

    def _transition(self, task: Task, new: str, **info: Any) -> None:
        old = task.status
        if new not in _ALLOWED_TRANSITIONS[old]:
            raise SchedulerError(
                f"illegal transition {old} -> {new} for task {task.id!r}")
        task.status = new
        if self.on_transition is not None:
            self.on_transition(task, old, new, info)


#: Longest a crew loop waits on its workers' pipes per round: the one
#: cadence of every poll of the shared queue.
POLL_S = 0.05


class CrewLoop:
    """The one plan/lease/execute/update loop of every multi-process
    build: a :class:`TaskBoard`, a forked
    :class:`~repro.experiments.worksite.WorkerCrew` and the graph plane,
    advanced by :meth:`tick`.

    What varies between builds is only where tasks come from and where
    results go, and that is what the two subclasses add:
    :class:`Supervisor` plans a whole corpus onto the board and collects
    it in plan order; a :class:`~repro.experiments.nodeagent.NodeAgent`
    claims tasks from a shared queue and publishes behind its fence.
    They hook in at the ``_schedule`` / ``_on_*`` methods, whose
    defaults here do nothing.

    Its settings are read from the build's options and profile; *node*
    picks a node's lease (a distributed build) over a local crew's.

    (A ``workers<=1`` build does not come here at all: an in-process
    call needs no lease, and driving it through the board costs more
    than the call it would supervise — see docs/scheduling.md.)
    """

    def __init__(self, *, options: BuildOptions, profile: Any,
                 workers: int, store_root: "str | None",
                 node: bool) -> None:
        from repro.obs.telemetry import get_telemetry

        self.options = options
        self.profile = profile
        #: The lease every beat of this loop's workers renews.
        self.lease_s = options.lease_timeout(node=node)
        self.tel = get_telemetry()
        self.board = TaskBoard(
            lease_timeout_s=self.lease_s,
            max_lease_expiries=options.max_lease_expiries,
            backoff_base_s=profile.retry_backoff_s,
            on_transition=self._emit_transition)
        self.crew = WorkerCrew(workers, self.lease_s, options, profile,
                               store_root)
        #: The graph plane, made on first use: the one record of what
        #: this loop published.
        self.plane = None
        #: Set once a publish failed (shared memory unusable): every
        #: later cell materializes per process.
        self._plane_failed = False
        self.stopping = False

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def tick(self, now: float, wait_s: float = 0.0) -> None:
        """One round: renew leases from worker beats, reap dead workers,
        expire leases, dispatch what is ready, then drain results —
        waiting up to *wait_s* for the first, so an idle loop sleeps on
        the workers' pipes and a finished cell wakes it at once."""
        self._renew_leases()
        for handle in self.crew.dead_workers():
            self._on_worker_death(handle, now)
        for task, lease in self.board.expired_leases(now):
            self._on_lease_expiry(task, lease, now)
        if not self.stopping:
            self._schedule(now)
        for envelope in self.crew.poll_results(wait_s):
            self._on_result(envelope)

    def _renew_leases(self) -> None:
        """Renew each busy worker's lease from its beat array. The
        board renews only the lease whose epoch the beat names, and
        epochs are unique, so a beat from the worker's previous task
        renews nothing."""
        for handle in self.crew.workers.values():
            if handle.task_id is not None:
                epoch, ts = handle.beat[:]
                self.board.renew(handle.worker, handle.task_id, int(epoch),
                                 ts)

    def close(self, *, kill: bool = False) -> None:
        """Stop the crew and remove every published segment. After the
        crew is down no process can still be attached, so unlinking is
        safe on the SIGINT and exception paths too."""
        busy = any(not h.idle for h in self.crew.workers.values())
        self.crew.shutdown(kill=kill or busy)
        if self.plane is not None:
            self.plane.close()
            self.plane = None

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _schedule(self, now: float) -> None:
        self._dispatch_ready(now)

    def _on_quarantined(self, task: Task) -> None:
        """*task* spent its poison budget."""

    def _on_dispatched(self, task: Task) -> None:
        """*task* was just handed to a worker."""

    def _on_update(self, task: Task, envelope: ResultEnvelope,
                   accepted: bool) -> None:
        """The board took (or, for a stale lease, dropped) a result."""

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plane_wanted(self) -> bool:
        """True until a publish has failed: cells wait for their graph
        in the plane, which is made on first use."""
        from repro.graph import shm

        if self.plane is None and not self._plane_failed:
            self.plane = shm.GraphPlane()
        return self.plane is not None

    def _materialize_task(self, spec: Any) -> str:
        """Id of the board task that publishes *spec* into the plane
        (one per graph, added on first use)."""
        task_id = f"materialize:{spec.cache_key()}"
        if self.board.get(task_id) is None:
            self.board.add(Task(task_id, "materialize", payload=spec))
        return task_id

    def _add_run(self, task_id: str, planned: Any, *,
                 materialize: bool) -> Task:
        """Put one cell on the board, behind its graph's materialize
        task when the plane is in play."""
        deps = (self._materialize_task(planned.spec),) if materialize else ()
        return self.board.add(Task(task_id, "run", payload=planned,
                                   deps=deps))

    def _dispatch_ready(self, now: float) -> None:
        idle = self.crew.idle_workers()
        if not idle:
            return
        for task in self.board.ready(now):
            if not idle:
                break
            self._dispatch(idle.pop(), task, now)

    def _dispatch(self, handle, task: Task, now: float) -> None:
        epoch = self.board.lease(task.id, handle.worker, now)
        manifest = (None if task.kind == "materialize"
                    or self.plane is None else
                    self.plane.manifest(task.payload.spec.cache_key()))
        self.crew.dispatch(handle, TaskEnvelope(
            task.id, epoch, task.kind, (task.payload, manifest)))
        self._on_dispatched(task)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _revoke(self, task: Task, lease: Lease, now: float,
                reason: str) -> str:
        outcome = self.board.revoke_lease(task, lease, now, reason=reason)
        if outcome == "quarantined":
            self._on_quarantined(task)
        return outcome

    def _retire(self, handle) -> None:
        """Kill (if it still runs) and reap a dead or hung worker, and
        replace it while the crew is still wanted."""
        self.crew.kill(handle)
        if not self.stopping:
            self.crew.spawn()
            self.crew.replaced += 1

    def _on_worker_death(self, handle, now: float) -> None:
        task = (self.board.get(handle.task_id)
                if handle.task_id is not None else None)
        if self.tel.enabled:
            self.tel.emit("scheduler", action="worker-died",
                          worker=handle.worker,
                          task=handle.task_id)
        if (task is not None and task.lease is not None
                and task.lease.worker == handle.worker):
            self._revoke(task, task.lease, now, "worker-died")
        self._retire(handle)

    def _on_lease_expiry(self, task: Task, lease: Lease,
                         now: float) -> None:
        outcome = self._revoke(task, lease, now, "lease-expired")
        if outcome == "stale":
            return
        if self.tel.enabled:
            self.tel.emit("scheduler", action="lease-expired",
                          task=task.id, worker=lease.worker,
                          epoch=lease.epoch, outcome=outcome,
                          failure_kind="lease-expired",
                          expiries=task.lease_expiries)
        # The worker holding the lease is hung (a dead one was already
        # reaped by _on_worker_death).
        handle = self.crew.workers.get(lease.worker)
        if handle is not None:
            self._retire(handle)

    def _on_result(self, envelope: ResultEnvelope) -> None:
        self.crew.mark_idle(envelope.worker)
        task = self.board.get(envelope.task_id)
        if task is None:
            return
        if not envelope.ok:
            accepted = self.board.fail(task.id, envelope.epoch,
                                       envelope.error)
        elif task.kind == "materialize":
            self._publish_materialized(envelope.value)
            accepted = self.board.complete(task.id, None)
        else:
            accepted = self.board.complete(task.id, envelope.value)
        self._on_update(task, envelope, accepted)

    def _publish_materialized(self, value) -> None:
        from repro.graph import shm

        if self.plane is None or value is None:
            return
        spec_key, problem = value
        if not shm.publishable(problem):
            return
        try:
            self.plane.publish(spec_key, problem)
        except Exception:
            # Shared memory is unusable (no /dev/shm, too small for
            # the graph, ...): fall back to per-process materialization
            # for everything.
            self.plane.close()
            self.plane = None
            self._plane_failed = True

    def _emit_transition(self, task: Task, old: str, new: str,
                         info: dict) -> None:
        if not self.tel.enabled:
            return
        # Every transition of one task shares one span, so lease /
        # revoke / re-dispatch cycles thread onto one trace node.
        self.tel.emit("task", _trace_ctx=self.tel.child("task", task.id),
                      task=task.id, task_kind=task.kind,
                      **{"from": old, "to": new}, **info)


class Supervisor(CrewLoop):
    """One multi-worker corpus build on this machine.

    Plans the whole corpus onto the board as an explicit materialize →
    run DAG and fills the
    :class:`~repro.experiments.corpus.BehaviorCorpus` in plan order, so
    a supervised build's ``runs`` list is ordered exactly like an inline
    build's. On top of the shared loop it owns the stop request.
    """

    def __init__(self, *, plan: list, profile: Any, store: Any,
                 corpus: Any, workers: int, options: BuildOptions,
                 progress: "Callable | None" = None,
                 stop_requested: "Callable | None" = None) -> None:
        self.plan = plan
        self.store = store
        self.corpus = corpus
        self.progress = progress
        self._stop = stop_requested or (lambda: False)
        #: The run task of every cell, in plan order.
        self._cells: "list[Task]" = []
        self._premat_pending = True
        self._started = time.perf_counter()  # crew start-up is premat time
        super().__init__(
            options=options, profile=profile, workers=max(2, int(workers)),
            store_root=str(store.root) if store is not None else None,
            node=False)

    # ------------------------------------------------------------------
    # DAG construction
    # ------------------------------------------------------------------
    def _build_dag(self) -> None:
        """One run task per cell in plan order. A cell that will execute
        (by the store's summary door, the rule every path uses) waits
        for its graph, so a fully cached graph gets no materialize task.
        The graphs are put on the board ahead of every cell, so the
        board offers them first: one parallel phase."""
        from repro.experiments.corpus import run_cache_key

        cells = []
        for planned in self.plan:
            key = run_cache_key(planned, self.profile)
            executes = self.store is None or self.store.outcome(
                key, self.options.resume) is None
            materialize = executes and self._plane_wanted()
            if materialize:
                self._materialize_task(planned.spec)
            cells.append((key, planned, materialize))
        for key, planned, materialize in cells:
            self._cells.append(self._add_run(f"run:{key}", planned,
                                             materialize=materialize))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        polite = False
        try:
            self._build_dag()
            while True:
                if not self.stopping and self._stop():
                    self.stopping = True
                self.tick(time.time(), POLL_S)
                self._check_premat_done()
                if not self.stopping:
                    self._collect_finished()
                if self.board.all_terminal() or (
                        self.stopping and not self.board.leased()):
                    polite = True
                    break
        finally:
            self.close(kill=not polite)
            self.corpus.workers_replaced = self.crew.replaced
            self.corpus.lease_expiries = self.board.total_lease_expiries
            if self.stopping:
                self.corpus.interrupted = True

    def _on_update(self, task: Task, envelope: ResultEnvelope,
                   accepted: bool) -> None:
        if envelope.ok and not accepted and self.tel.enabled:
            self.tel.emit("scheduler", action="stale-result",
                          task=task.id, worker=envelope.worker)

    # ------------------------------------------------------------------
    # Collection (plan order)
    # ------------------------------------------------------------------
    def _collect_finished(self) -> None:
        """Collect the finished prefix of the plan: ``corpus.runs`` is
        ordered like an inline build's whatever order cells complete
        in."""
        total = len(self.plan)
        while self.corpus.n_collected < total:
            run_task = self._cells[self.corpus.n_collected]
            if not run_task.terminal:
                break
            self.corpus.collect(self._corpus_run_for(run_task), total,
                                self.progress)

    def _corpus_run_for(self, run_task: Task):
        from repro.experiments.corpus import CorpusRun, run_cache_key

        planned = run_task.payload
        if run_task.status == "done":
            return run_task.result
        failure = run_task.failure or RunFailure(
            kind="crash", message="task lost without a recorded failure")
        if run_task.status == "quarantined" and self.store is not None:
            # Persist the poison verdict so resumed builds replay it
            # (quarantined-poison is not retryable) instead of feeding
            # the cell to a fresh crew.
            self.store.save_failure(
                run_cache_key(planned, self.profile), failure)
        return CorpusRun(planned.algorithm, planned.spec, None, None,
                         failure=failure)

    # ------------------------------------------------------------------
    # Premat bookkeeping
    # ------------------------------------------------------------------
    def _check_premat_done(self) -> None:
        if not self._premat_pending or not all(
                t.terminal for t in self.board.tasks.values()
                if t.kind == "materialize"):
            return
        self._premat_pending = False
        self.corpus.graph_plane = self.plane is not None
        self.corpus.premat_graphs = len(self.plane or ())
        self.corpus.premat_seconds = time.perf_counter() - self._started
        self.tel.emit("premat", graphs=self.corpus.premat_graphs,
                      seconds=self.corpus.premat_seconds,
                      plane=self.plane is not None)
