"""Node agent: one machine's worker of the distributed corpus queue.

An agent is the per-node half of :mod:`repro.experiments.distqueue`:
a peer registers in the queue's node directory with heartbeat files
(the coordinator's embedded agent writes none: nothing reads them), it
pulls tasks by atomic claim, executes them through the existing
:class:`~repro.experiments.worksite.WorkerCrew` / shm machinery, and
publishes outcomes into the shared
:class:`~repro.experiments.results.ResultStore` behind an epoch fence
check.

The agent *is* a :class:`~repro.experiments.scheduler.CrewLoop`, the
same loop a single-node supervisor runs: every claimed queue task
becomes a board task, leased to a worker with a heartbeat-renewed
deadline, so local worker deaths and hangs are handled by the very code
that handles them there (revoke, respawn, re-dispatch; a local poison
budget quarantines the cell). What the agent adds is the two ends: it
claims tasks from the queue, and publishes outcomes behind its fence.
Queue-level epochs (fencing between *nodes*) and board-level epochs
(lease matching between the agent and its *workers*) are deliberately
separate counters: the first survives on disk across node deaths, the
second lives only as long as the agent.

Two things make an agent safe to kill at any instruction:

- Its workers never write the shared store (their store root is None);
  all publication happens in the agent's fence-checked
  :func:`~repro.experiments.distqueue.publish_result` path, so a
  revoked node can never clobber the replacement's outcome with a
  non-deterministic failure record.
- Its crew workers arm ``PR_SET_PDEATHSIG`` (see
  :mod:`repro.experiments.worksite`), so a SIGKILLed agent takes its
  workers with it instead of orphaning them; its shm segment names
  travel in every node heartbeat, so the coordinator can reap what
  ``atexit`` never got to run.

Chaos hooks (``REPRO_INJECT_NODE_KILL``, ``REPRO_INJECT_NODE_FREEZE``)
promote the worker-level kill/stall injections one level up: SIGKILL
the whole agent right after it claims a matching task, or freeze its
heartbeats past the node lease timeout and let it wake into its own
fence — the two partition behaviors the acceptance chaos run must
converge through.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import time
import uuid

from repro._util.errors import ValidationError
from repro._util.faulthooks import hook_value
from repro.experiments.config import BuildOptions, Profile
from repro.experiments.distqueue import (
    Claim,
    DistributedQueue,
    parse_manifest,
    publish_result,
)
from repro.experiments.failures import RunFailure
from repro.experiments.results import ResultStore
from repro.experiments.scheduler import POLL_S, CrewLoop, Task
from repro.experiments.worksite import HeartbeatWriter, ResultEnvelope

#: ``"<substring|*>:<count>"`` — SIGKILL this *entire agent process*
#: right after it dispatches a claimed run task whose id contains the
#: substring (``*`` matches any). Fires once per process; ignored by
#: the coordinator's embedded agent. This is the "node dies mid-lease"
#: partition the fence/requeue path must absorb.
INJECT_NODE_KILL_ENV = "REPRO_INJECT_NODE_KILL"
#: ``"<substring|*>:<seconds>"`` — on receiving a matching run result,
#: suspend node heartbeats and sleep that long *before* publishing,
#: simulating a node frozen past its lease that later wakes. The
#: publish then trips the fence check: rejected, counted, logged.
INJECT_NODE_FREEZE_ENV = "REPRO_INJECT_NODE_FREEZE"

#: Hooks that already fired in this process (each fires once).
_fired: "set[str]" = set()


def _injection(env: str, task_id: str) -> "float | None":
    """The amount of the ``"<substring|*>:<amount>"`` hook in *env* if
    it matches *task_id* and has not fired yet, marking it fired."""
    if env in _fired:
        return None
    # Only the pattern ``*`` is a substring of the key ``*``.
    value = hook_value(env, "*") or hook_value(env, task_id)
    try:
        amount = float(value)
    except (TypeError, ValueError):  # no match (None) or not a number
        return None
    if amount <= 0:
        return None
    _fired.add(env)
    return amount


def default_node_id() -> str:
    host = "".join(c if c.isalnum() or c in "-_" else "-"
                   for c in socket.gethostname()) or "node"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class NodeAgent(CrewLoop):
    """Claim-execute-publish loop for one node of a distributed build.

    Tick-driven so the coordinator can embed one in its own process
    (``embedded=True``) and drive it from the supervision loop — a
    build with zero peer nodes then degrades gracefully to exactly the
    single-node shape. Standalone agents (the ``repro node`` CLI) wrap
    the same ticks in :meth:`serve`.
    """

    def __init__(self, queue: DistributedQueue, options: BuildOptions,
                 profile: Profile, store_root: str, *, workers: int = 1,
                 node: "str | None" = None, embedded: bool = False,
                 trace: "dict | None" = None) -> None:
        self.queue = queue
        self.node = node or ("coordinator" if embedded
                             else default_node_id())
        self.embedded = embedded
        self.store = ResultStore(store_root)
        self.stale_rejections = 0
        self._claims: "dict[str, Claim]" = {}
        self._queue_epoch = 0
        queue.ensure_layout()
        self._owns_obs = self._configure_obs(options, trace)
        # Workers never touch the shared store (store_root=None): all
        # publication funnels through the agent's fence-checked path.
        super().__init__(
            options=options, profile=profile,
            workers=max(1, int(workers)), store_root=None, node=True)
        # A peer's beat renews its claims, leased like its crew's. The
        # coordinator never supervises, fences or waits on its own node,
        # so the embedded agent has no beat to write.
        self._beats: "HeartbeatWriter | None" = None
        if not embedded:
            self._beats = HeartbeatWriter(
                self.node, self.lease_s,
                lambda: queue.write_beat(self.node, self._beat_payload()))
            self._beats.start()
        if self.tel.enabled:
            self.tel.emit("node", _trace_ctx=self.tel.child("node", self.node),
                          action="start", workers=len(self.crew.workers),
                          embedded=self.embedded)

    def _configure_obs(self, options: BuildOptions,
                       trace: "dict | None") -> bool:
        """Standalone agents own their telemetry, writing a per-node
        event sink that the coordinator's end-of-build merge folds in;
        the embedded agent rides the coordinator process's
        already-configured telemetry. Either way it carries this node's
        id and the coordinator's root context, which the crew workers
        inherit: cell spans executed on this node derive the same
        deterministic ids as anywhere else, so re-dispatches across
        nodes re-link. Returns whether the telemetry is this agent's
        to close."""
        from repro.obs.events import node_sink_path
        from repro.obs.telemetry import configure, get_telemetry
        from repro.obs.tracing import TraceContext

        owns = not (self.embedded or options.obs_level == "off"
                    or options.obs_dir is None)
        if owns:
            configure(options.obs_level, run_id=options.run_id,
                      events_path=node_sink_path(options.obs_dir,
                                                 self.node))
        tel = get_telemetry()
        tel.set_node(self.node)
        context = TraceContext.from_dict(trace)
        if owns or context is not None:
            tel.set_trace(context)
        return owns

    def _beat_payload(self, done: bool = False) -> dict:
        return {
            "epoch": self._queue_epoch,
            "tasks": sorted(self._claims),
            "stale_rejections": self.stale_rejections,
            "segments": self.plane.segments() if self.plane else [],
            "done": done,
        }

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------
    def tick(self, now: float, wait_s: float = 0.0) -> None:
        """One supervision round; cheap when nothing happened."""
        if self.stopping:
            return
        try:
            super().tick(now, wait_s)
        except OSError:
            # The queue root vanished under us (swept after completion,
            # or the shared filesystem went away): nothing left to do.
            # An embedded agent's coordinator then ends the build.
            self.stopping = True

    def _schedule(self, now: float) -> None:
        if not self.queue.complete():
            self._claim_pending()
        self._dispatch_ready(now)

    @property
    def drained(self) -> bool:
        """True when every claimed task reached a terminal state."""
        return not self._claims and all(
            t.terminal for t in self.board.tasks.values())

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def _claim_capacity(self) -> int:
        """Claim only what the crew can start soon: idle workers minus
        the local backlog. Hoarding claims would serialize work other
        nodes could run in parallel."""
        backlog = sum(
            1 for t in self.board.tasks.values()
            if t.kind == "run" and not t.terminal
            and t.status != "leased")
        return max(0, len(self.crew.idle_workers()) - backlog)

    def _next_epoch(self) -> int:
        """Queue lease epochs are strictly monotonic *and* above the
        node's own fence — a woken zombie that was fenced while frozen
        resumes claiming with live epochs."""
        self._queue_epoch = max(
            self._queue_epoch, self.queue.fence_epoch(self.node)) + 1
        return self._queue_epoch

    def _claim_pending(self) -> None:
        capacity = self._claim_capacity()
        if capacity <= 0:
            return
        for task_id in self.queue.pending():
            if capacity <= 0:
                break
            if task_id in self._claims or self.queue.is_done(task_id):
                continue
            claim = self.queue.take(task_id, self.node, self._next_epoch())
            if claim is None:
                continue  # lost the race (or torn record): move on
            if self.tel.enabled:
                self.tel.emit("node",
                              _trace_ctx=self.tel.child("node", self.node),
                              action="claim", task=task_id,
                              epoch=claim.epoch)
            if self._resolve_cached(claim):
                continue
            self._claims[task_id] = claim
            self._add_run(task_id, claim.record.planned,
                          materialize=self._plane_wanted())
            capacity -= 1

    def _resolve_cached(self, claim: Claim) -> bool:
        """A requeued task may have been satisfied while it bounced
        between nodes; take the stored outcome instead of re-executing
        (through the store's summary door: no trace is parsed)."""
        if self.store.outcome(claim.record.cell_key,
                              self.options.resume) is None:
            return False
        try:
            self.queue.mark_done(claim.task_id, {
                "status": "cached", "node": self.node,
                "epoch": claim.epoch, "source": "cache",
                "failure_kind": None})
        finally:
            self.queue.drop_claim(claim)
        return True

    # ------------------------------------------------------------------
    # Chaos hooks
    # ------------------------------------------------------------------
    def _on_dispatched(self, task: Task) -> None:
        if (task.kind == "run" and not self.embedded
                and _injection(INJECT_NODE_KILL_ENV, task.id)):
            # Mid-lease death: the claim is on disk, a worker is
            # executing, and SIGKILL gives nothing a chance to clean
            # up. PDEATHSIG reaps the workers; the coordinator fences
            # and requeues the claim; the beats-carried segment names
            # let it reap our shm.
            os.kill(os.getpid(), signal.SIGKILL)

    def _maybe_freeze(self, task_id: str) -> None:
        seconds = (None if self.embedded
                   else _injection(INJECT_NODE_FREEZE_ENV, task_id))
        if seconds:
            self._beats.suspend()
            time.sleep(seconds)
            self._beats.resume()

    def _beat(self) -> None:
        """A peer's news reaches the coordinator now (the embedded
        agent has no beat)."""
        if self._beats is not None:
            self._beats.beat()

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def _on_quarantined(self, task: Task) -> None:
        """Local poison budget spent: the board's quarantine verdict is
        published like any failed cell, so every node and every future
        resumed build replays it."""
        claim = self._claims.pop(task.id, None)
        if claim is not None:
            self._publish(claim, task.failure)

    def _on_update(self, task: Task, envelope: ResultEnvelope,
                   accepted: bool) -> None:
        if task.kind == "materialize":
            self._beat()  # segment names reach the coordinator
            return
        self._maybe_freeze(task.id)
        claim = self._claims.pop(task.id, None) if accepted else None
        if claim is None:
            return  # stale local lease: the replacement owns the cell
        self._publish(claim, task.result if envelope.ok else envelope.error)

    def _publish(self, claim: Claim, outcome) -> None:
        """Publish a claimed cell's run (or bare failure) behind the
        fence, count it, and let go of the claim and of its board task:
        a cell that comes back (this publish fenced, the store entry
        lost, a stale marker refused) is claimed and run like a new
        one, under the new epoch."""
        from repro.experiments.corpus import CorpusRun

        if isinstance(outcome, RunFailure):
            outcome = CorpusRun(claim.record.algorithm, claim.record.spec,
                                None, None, failure=outcome)
        if publish_result(self.queue, self.store, self.node, claim.epoch,
                          claim.record, outcome) is None:
            self._count_stale(claim)
        self.queue.drop_claim(claim)
        self.board.discard(claim.task_id)

    def _count_stale(self, claim: Claim) -> None:
        """The fence says this lease was revoked while we held it: the
        store attempt is rejected — never written — counted here and on
        the next heartbeat, and logged for the operator."""
        self.stale_rejections += 1
        if self.tel.enabled:
            self.tel.emit("node", _trace_ctx=self.tel.child("node", self.node),
                          action="stale-epoch-rejected",
                          task=claim.task_id, epoch=claim.epoch,
                          fence=self.queue.fence_epoch(self.node))
        self._beat()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        self.stopping = True
        # Unfinished claims go back to the queue for someone else.
        for task_id, claim in self._claims.items():
            task = self.board.get(task_id)
            if task is None or not task.terminal:
                try:
                    self.queue.release(claim)
                except OSError:
                    pass
        self._claims.clear()
        self.close()
        if self._beats is not None:
            self._beats.stop()
        from repro.obs.telemetry import deactivate, peak_rss_bytes

        if self.tel.enabled:
            self.tel.emit("node", _trace_ctx=self.tel.child("node", self.node),
                          action="stop",
                          stale_rejections=self.stale_rejections,
                          peak_rss_bytes=peak_rss_bytes())
        if self._owns_obs:
            deactivate()
        # A peer's done beat comes last: once the coordinator reads it,
        # it may merge this node's sink and sweep the queue.
        if self._beats is not None:
            try:
                self.queue.write_beat(self.node,
                                      self._beat_payload(done=True))
            except OSError:
                pass  # queue already swept

    # ------------------------------------------------------------------
    # Standalone entry (the ``repro node`` CLI)
    # ------------------------------------------------------------------
    @classmethod
    def serve(cls, queue: DistributedQueue, *, workers: int = 1,
              node: "str | None" = None,
              manifest_wait_s: float = 60.0) -> int:
        """Join the build in *queue* and serve it until it completes (or
        the queue disappears). Returns a process exit code."""
        try:
            manifest = _await_manifest(queue, manifest_wait_s)
            options, profile, store_root, trace = parse_manifest(manifest)
            agent = cls(queue, options, profile, store_root,
                        workers=workers, node=node, trace=trace)
        except (ValueError, OSError) as exc:
            print(f"error: cannot join {queue.root}: {exc}",
                  file=sys.stderr)
            return 1
        try:
            while not agent.stopping:
                agent.tick(time.time(), POLL_S)
                if queue.complete() and agent.drained:
                    break
                if not (queue.root / "manifest.json").exists():
                    break  # queue swept: the build is over
        finally:
            agent.shutdown()
        return 0


def _await_manifest(queue: DistributedQueue, wait_s: float) -> dict:
    """The queue's build manifest, once a coordinator has written it;
    ``ValidationError`` if the build is over or none appears within
    *wait_s*, or at once for one of another queue version."""
    deadline = time.monotonic() + max(0.0, wait_s)
    while not queue.complete():
        manifest = queue.read_manifest()
        if manifest is not None:
            return manifest
        if time.monotonic() >= deadline:
            raise ValidationError(
                f"no build manifest appeared within {wait_s:g}s")
        time.sleep(POLL_S)
    raise ValidationError("the build is already complete")
