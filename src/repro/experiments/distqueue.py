"""Fenced, partition-tolerant shared work queue for multi-node builds.

PR 7 gave one machine a supervised plan/lease/execute/update loop;
this module lets a corpus build outlive that machine. The queue is a
directory on a filesystem every participating node can reach (NFS,
a shared scratch volume, or plain ``/tmp`` for the in-tree smoke) and
borrows its correctness story from two primitives the repo already
trusts:

- **Atomic rename as mutual exclusion.** A task is one file under
  ``tasks/``; a node claims it by ``os.replace``-renaming it into
  ``claims/<task>@<node>@<epoch>.json``. Rename of one source path is
  atomic — when two nodes race, exactly one rename succeeds and the
  loser observes ``FileNotFoundError``. Ownership lives in the claim
  *filename*, so there is no rewrite-after-rename window in which a
  claim is ambiguous.
- **Content-addressed, first-completion-wins results.** Execution
  results travel through the existing
  :class:`~repro.experiments.results.ResultStore`: byte-identical
  deterministic traces under content-addressed keys, published with
  atomic writer-unique staging. Duplicate execution after a partition
  is therefore harmless — both sides write the same bytes.

What makes the queue *partition-tolerant* rather than merely shared is
**epoch fencing**. Every claim carries a per-node, monotonically
increasing lease epoch. When the coordinator declares a node dead
(missed heartbeats in ``nodes/``), it first raises that node's fence
(``fences/<node>.json``, a persisted epoch floor) and only then
requeues the node's claims. A zombie that wakes later re-checks its
fence before publishing: a lease epoch at or below the floor means the
work was revoked — the store attempt is rejected, counted, and logged,
never published. The fence file outlives the zombie's nap, so the
check cannot race with its own revocation.

Completion is a ``done/<task>.json`` marker written *after* the fenced
store publish. A node that dies between publish and marker wastes
nothing: the replacement claims the task, finds the store entry, and
marks done without re-executing (effectively exactly-once). Poison
cells — tasks that keep killing whichever node runs them — burn a
global requeue budget tracked by the coordinator and are quarantined
into the store as ``quarantined-poison``, exactly like PR 7's
single-node budget.

The coordinator (:class:`Coordinator`) is deliberately *one more
supervisor over the queue*, not a privileged master: it runs its own
in-process :class:`~repro.experiments.nodeagent.NodeAgent` (so a build
with zero peers degrades gracefully to the PR 7 single-node shape),
collects done markers in plan order, and owns only the jobs that need
a single writer — fencing, requeueing, quarantine, and the final
sweep that leaves no queue/heartbeat/shm artifacts behind.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro._util.durable import publish, read_json_object, sanitize
from repro._util.errors import ValidationError
from repro.experiments.config import (
    BuildOptions,
    GraphSpec,
    PlannedRun,
    Profile,
)
from repro.experiments.failures import RunFailure
from repro.experiments.scheduler import POLL_S

#: Queue layout version; bumped on incompatible manifest or layout
#: changes.
QUEUE_VERSION = 6

MANIFEST_FILENAME = "manifest.json"
COMPLETE_FILENAME = "complete.json"
TASKS_DIRNAME = "tasks"
CLAIMS_DIRNAME = "claims"
DONE_DIRNAME = "done"
NODES_DIRNAME = "nodes"
FENCES_DIRNAME = "fences"

#: Hex digits of the content hash appended to every task id.
_TASK_DIGEST_LEN = 12


def _write_json_atomic(path: Path, payload: dict) -> None:
    # Deliberately no mkdir: once the coordinator sweeps the queue,
    # late writes (a waking zombie's beat or marker) must fail instead
    # of resurrecting the directory tree as orphan litter.
    publish(path, json.dumps(payload, sort_keys=True), mkdir=False)


# ----------------------------------------------------------------------
# Task records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskRecord:
    """One corpus cell as a durable, content-addressed queue entry.

    The id is the sanitized cell key plus a hash of the canonical
    record JSON — readable enough that sorting pending ids groups
    same-graph cells (preserving graph-affinity scheduling across
    nodes), collision-proof because of the digest suffix.
    """

    cell_key: str
    algorithm: str
    spec: GraphSpec

    @functools.cached_property
    def task_id(self) -> str:
        digest = hashlib.blake2b(
            json.dumps(self._payload(), sort_keys=True).encode("utf-8"),
            digest_size=8).hexdigest()[:_TASK_DIGEST_LEN]
        return f"{sanitize(self.cell_key)}-{digest}"

    @property
    def planned(self) -> PlannedRun:
        return PlannedRun(self.algorithm, self.spec)

    def _payload(self) -> dict:
        return {
            "cell_key": self.cell_key,
            "algorithm": self.algorithm,
            "spec": dataclasses.asdict(self.spec),
        }

    def to_dict(self) -> dict:
        return {"version": QUEUE_VERSION, **self._payload()}

    @classmethod
    def from_dict(cls, data: dict) -> "TaskRecord":
        spec = data.get("spec")
        if not isinstance(spec, dict):
            raise ValidationError("task record has no spec")
        return cls(
            cell_key=str(data["cell_key"]),
            algorithm=str(data["algorithm"]),
            spec=GraphSpec(
                domain=str(spec["domain"]),
                nedges=(None if spec.get("nedges") is None
                        else int(spec["nedges"])),
                alpha=(None if spec.get("alpha") is None
                       else float(spec["alpha"])),
                nrows=(None if spec.get("nrows") is None
                       else int(spec["nrows"])),
                seed=int(spec.get("seed", 0)),
            ),
        )

    @classmethod
    def for_planned(cls, planned: PlannedRun,
                    profile: Profile) -> "TaskRecord":
        from repro.experiments.corpus import run_cache_key

        return cls(cell_key=run_cache_key(planned, profile),
                   algorithm=planned.algorithm, spec=planned.spec)


@dataclass(frozen=True)
class Claim:
    """One outstanding lease, parsed back from its claim filename."""

    task_id: str
    node: str
    epoch: int
    path: Path
    #: The task itself, when this claim was just taken by
    #: :meth:`DistributedQueue.take` (not when listed from filenames).
    record: "TaskRecord | None" = None

    @property
    def age_s(self) -> float:
        try:
            return max(0.0, time.time() - self.path.stat().st_mtime)
        except OSError:
            return 0.0


@dataclass(frozen=True)
class NodeBeat:
    """One node agent's latest registry heartbeat."""

    node: str
    pid: int
    ts: float
    epoch: int
    tasks: tuple
    stale_rejections: int
    segments: tuple
    done: bool
    host: str = ""

    @property
    def age_s(self) -> float:
        return max(0.0, time.time() - self.ts)

    def provably_dead(self) -> bool:
        """True only when the beat's process can be *proven* gone: it
        ran on this host and its pid no longer exists. Cross-host
        beats are never provably dead — a partition looks identical."""
        if not self.host or self.host != socket.gethostname():
            return False
        try:
            os.kill(self.pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            return False
        return False


# ----------------------------------------------------------------------
# Profile transport
# ----------------------------------------------------------------------
def profile_to_dict(profile: Profile) -> dict:
    return dataclasses.asdict(profile)


def profile_from_dict(data: dict) -> Profile:
    kwargs = dict(data)
    for attr in ("ga_sizes", "cf_sizes", "matrix_rows", "grid_sides",
                 "mrf_edges"):
        kwargs[attr] = tuple(int(v) for v in kwargs[attr])
    kwargs["alphas"] = tuple(float(v) for v in kwargs["alphas"])
    return Profile(**kwargs)


def build_manifest(options: BuildOptions, profile: Profile,
                   store_root: "str | Path",
                   trace: "dict | None") -> dict:
    """What a node needs to join a build: the build's options, plus the
    profile, the shared store and the coordinator's root trace context
    (so cell spans executed on any node derive the same ids)."""
    return {**options.to_dict(), "profile": profile_to_dict(profile),
            "store_root": str(Path(store_root).resolve()), "trace": trace}


def parse_manifest(
        manifest: dict) -> "tuple[BuildOptions, Profile, str, dict | None]":
    """Inverse of :func:`build_manifest`. A manifest is outside input
    to ``repro node``: a missing or unknown key raises ``ValueError``
    (most likely a coordinator of another version)."""
    data = {k: v for k, v in manifest.items() if k != "version"}
    try:
        profile = profile_from_dict(data.pop("profile"))
        store_root, trace = data.pop("store_root"), data.pop("trace")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed build manifest: {exc!r}") from exc
    return BuildOptions.from_dict(data), profile, str(store_root), trace


# ----------------------------------------------------------------------
# The queue
# ----------------------------------------------------------------------
class DistributedQueue:
    """Directory protocol shared by the coordinator and node agents.

    Every mutation is a single atomic filesystem operation (rename or
    tmp-stage + replace), so the protocol needs no locks and survives
    any participant dying at any instruction boundary.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)

    # -- layout --------------------------------------------------------
    @property
    def tasks_dir(self) -> Path:
        return self.root / TASKS_DIRNAME

    @property
    def claims_dir(self) -> Path:
        return self.root / CLAIMS_DIRNAME

    @property
    def done_dir(self) -> Path:
        return self.root / DONE_DIRNAME

    @property
    def nodes_dir(self) -> Path:
        return self.root / NODES_DIRNAME

    @property
    def fences_dir(self) -> Path:
        return self.root / FENCES_DIRNAME

    def ensure_layout(self) -> None:
        for sub in (self.tasks_dir, self.claims_dir, self.done_dir,
                    self.nodes_dir, self.fences_dir):
            sub.mkdir(parents=True, exist_ok=True)

    # -- manifest ------------------------------------------------------
    def write_manifest(self, manifest: dict) -> None:
        _write_json_atomic(self.root / MANIFEST_FILENAME,
                           {"version": QUEUE_VERSION, **manifest})

    def read_manifest(self) -> "dict | None":
        """The build manifest, or None while none is readable. A
        manifest of another queue version is refused: waiting would
        not change it."""
        data = read_json_object(self.root / MANIFEST_FILENAME)
        if data is not None and data.get("version") != QUEUE_VERSION:
            raise ValidationError(
                f"the queue manifest is version {data.get('version')!r}; "
                f"this node speaks version {QUEUE_VERSION}")
        return data

    # -- tasks ---------------------------------------------------------
    def _task_path(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}.json"

    def publish(self, record: TaskRecord) -> bool:
        """Enqueue a task; False when it already exists anywhere in the
        pipeline (pending, claimed, or done)."""
        tid = record.task_id
        if (self._task_path(tid).exists() or self.is_done(tid)
                or any(c.task_id == tid for c in self.claims())):
            return False
        _write_json_atomic(self._task_path(tid), record.to_dict())
        return True

    def pending(self) -> "list[str]":
        """Pending task ids, sorted — cell keys embed the graph spec,
        so lexicographic order is graph-affinity order."""
        try:
            names = [p.stem for p in self.tasks_dir.glob("*.json")]
        except OSError:
            return []
        return sorted(names)

    def read_task(self, task_id: str) -> "TaskRecord | None":
        data = read_json_object(self._task_path(task_id))
        if data is None:
            return None
        try:
            return TaskRecord.from_dict(data)
        except (KeyError, TypeError, ValueError, ValidationError):
            return None

    # -- claims --------------------------------------------------------
    def _claim_path(self, task_id: str, node: str, epoch: int) -> Path:
        # ``@`` separates the fields; sanitized names never contain it.
        return (self.claims_dir
                / f"{task_id}@{sanitize(node)}@{int(epoch)}.json")

    def take(self, task_id: str, node: str, epoch: int) -> "Claim | None":
        """Atomically take ownership of a pending task.

        The rename is the entire mutual-exclusion protocol: exactly one
        of any number of concurrent claimants wins; everyone else gets
        None (the source path is gone) and moves on.
        """
        dest = self._claim_path(task_id, node, epoch)
        try:
            os.replace(self._task_path(task_id), dest)
        except FileNotFoundError:
            return None
        data = read_json_object(dest)
        if data is None:
            return None
        try:
            return Claim(task_id, node, int(epoch), dest,
                         TaskRecord.from_dict(data))
        except (KeyError, TypeError, ValueError, ValidationError):
            return None

    def claims(self) -> "list[Claim]":
        out: "list[Claim]" = []
        try:
            paths = list(self.claims_dir.glob("*.json"))
        except OSError:
            return out
        for path in paths:
            parts = path.stem.rsplit("@", 2)
            if len(parts) != 3:
                continue
            tid, node, epoch = parts
            try:
                out.append(Claim(tid, node, int(epoch), path))
            except ValueError:
                continue
        return sorted(out, key=lambda c: (c.task_id, c.node, c.epoch))

    def release(self, claim: Claim) -> bool:
        """Put a claimed task back into ``tasks/`` (voluntary release
        by its owner, or a coordinator requeue after fencing). False
        when the claim vanished first — the owner completed it, or a
        concurrent requeue won."""
        try:
            os.replace(claim.path, self._task_path(claim.task_id))
        except FileNotFoundError:
            return False
        return True

    def drop_claim(self, claim: Claim) -> None:
        claim.path.unlink(missing_ok=True)

    # -- fences --------------------------------------------------------
    def _fence_path(self, node: str) -> Path:
        return self.fences_dir / f"{sanitize(node)}.json"

    def fence_epoch(self, node: str) -> int:
        data = read_json_object(self._fence_path(node))
        if data is None:
            return 0
        try:
            return int(data.get("epoch", 0))
        except (TypeError, ValueError):
            return 0

    def raise_fence(self, node: str, epoch: int) -> int:
        """Persist ``epoch`` as the node's revocation floor (monotonic:
        an older concurrent write can only be superseded, never lower
        the floor). Every lease of that node with epoch <= floor is
        dead; the zombie's later publish attempt must check this."""
        floor = max(self.fence_epoch(node), int(epoch))
        _write_json_atomic(self._fence_path(node),
                           {"node": node, "epoch": floor, "ts": time.time()})
        return floor

    def check_fence(self, node: str, epoch: int) -> bool:
        """True when a lease epoch is still live (above the floor).

        A missing ``fences/`` directory means the queue was never laid
        out or has already been swept — either way no lease taken from
        it can still be valid, so the check fails closed. Without this
        a zombie sleeping past the *entire build* would wake to find
        its fence file gone and read the empty floor as permission."""
        if not self.fences_dir.is_dir():
            return False
        return int(epoch) > self.fence_epoch(node)

    # -- done markers --------------------------------------------------
    def _done_path(self, task_id: str) -> Path:
        return self.done_dir / f"{task_id}.json"

    def mark_done(self, task_id: str, payload: dict) -> None:
        """Publish the completion marker. Last-writer-wins is safe:
        duplicate completers recorded the same store bytes, so the
        markers differ only in who signed them."""
        _write_json_atomic(self._done_path(task_id),
                           {"task_id": task_id, "ts": time.time(),
                            **payload})

    def is_done(self, task_id: str) -> bool:
        return self._done_path(task_id).exists()

    def read_done(self, task_id: str) -> "dict | None":
        return read_json_object(self._done_path(task_id))

    def drop_done(self, task_id: str) -> None:
        self._done_path(task_id).unlink(missing_ok=True)

    # -- node registry -------------------------------------------------
    def write_beat(self, node: str, payload: dict) -> None:
        _write_json_atomic(self.nodes_dir / f"{sanitize(node)}.json",
                           {"node": node, "pid": os.getpid(),
                            "host": socket.gethostname(),
                            "ts": time.time(), **payload})

    def read_beats(self) -> "dict[str, NodeBeat]":
        beats: "dict[str, NodeBeat]" = {}
        try:
            paths = list(self.nodes_dir.glob("*.json"))
        except OSError:
            return beats
        for path in paths:
            data = read_json_object(path)
            if data is None:
                continue
            try:
                beat = NodeBeat(
                    node=str(data["node"]), pid=int(data["pid"]),
                    ts=float(data["ts"]),
                    epoch=int(data.get("epoch", 0)),
                    tasks=tuple(data.get("tasks", ())),
                    stale_rejections=int(data.get("stale_rejections", 0)),
                    segments=tuple(data.get("segments", ())),
                    done=bool(data.get("done", False)),
                    host=str(data.get("host", "")))
            except (KeyError, TypeError, ValueError):
                continue
            beats[beat.node] = beat
        return beats

    def drop_beat(self, node: str) -> None:
        (self.nodes_dir / f"{sanitize(node)}.json").unlink(missing_ok=True)

    # -- completion + sweep --------------------------------------------
    def mark_complete(self) -> None:
        _write_json_atomic(self.root / COMPLETE_FILENAME,
                           {"ts": time.time()})

    def complete(self) -> bool:
        return (self.root / COMPLETE_FILENAME).exists()

    def sweep(self) -> int:
        """Remove every queue artifact and the root itself; returns the
        number of files that could not be removed (0 = clean exit with
        no orphan queue/heartbeat artifacts). ``fences/`` goes first,
        in one rename: :meth:`check_fence` fails closed without it, but
        would read a floor deleted from it as 0 and pass a zombie."""
        swept_fences = self.root / f"{FENCES_DIRNAME}.swept"
        try:
            self.fences_dir.rename(swept_fences)
        except OSError:
            pass  # absent, or left for the loop below to empty in place
        leftovers = 0
        for sub in (swept_fences, self.tasks_dir, self.claims_dir,
                    self.done_dir, self.nodes_dir, self.fences_dir):
            if not sub.exists():
                continue
            for path in sub.iterdir():
                try:
                    path.unlink()
                except OSError:
                    leftovers += 1
            try:
                sub.rmdir()
            except OSError:
                leftovers += 1
        for name in (MANIFEST_FILENAME, COMPLETE_FILENAME):
            try:
                (self.root / name).unlink()
            except FileNotFoundError:
                pass
            except OSError:
                leftovers += 1
        try:
            self.root.rmdir()
        except OSError:
            leftovers += 1
        return leftovers


# ----------------------------------------------------------------------
# Fence-checked publication (shared by agents and the coordinator)
# ----------------------------------------------------------------------
def publish_result(queue: DistributedQueue, store: Any, node: str,
                   epoch: int, record: TaskRecord, run: Any) -> "str | None":
    """Publish one executed cell's outcome, gated by the node's fence.

    Returns the done marker's status once the outcome is stored and
    the marker written; None when the lease epoch was at or below the
    node's fence — the work was revoked while we held it, so the store
    attempt is rejected (counted and logged by the caller) and the
    replacement's outcome stands instead.

    The order matters: fence check, then store publish, then marker.
    A death after the store publish but before the marker wastes
    nothing — the replacement finds the store entry and marks done
    without re-executing. A trace the store cannot take (a full disk)
    fails the cell as ``disk-io``, as it does in an inline build.
    """
    if not queue.check_fence(node, epoch):
        return None
    failure = run.failure
    if run.trace is not None:
        try:
            store.save(record.cell_key, run.trace)
        except OSError as exc:
            failure = RunFailure.from_exception(exc)
    if failure is not None:
        store.save_failure(record.cell_key, failure)
        status = "failed"
    else:
        status = "degraded" if run.trace.degraded else "ok"
    queue.mark_done(record.task_id, {
        "status": status, "node": node, "epoch": int(epoch),
        "source": "run",
        "failure_kind": None if failure is None else failure.kind,
    })
    return status


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class _TaskState:
    """Coordinator-side requeue bookkeeping for one task."""

    record: TaskRecord
    requeues: int = 0


class Coordinator:
    """Supervises one distributed build over the shared queue.

    Runs its own in-process node agent (so zero peers degrade to the
    PR 7 single-node shape), detects dead or partitioned nodes by
    heartbeat age, fences them *before* requeueing their claims (the
    fencing order is what makes a woken zombie harmless, and what lets
    the claims go back at once), quarantines poison cells globally,
    and collects done markers into the corpus in plan order so
    ``vectors()`` is bit-identical with an inline build.
    """

    #: How long the final sweep waits for silent peers that are not
    #: provably dead.
    PEER_EXIT_GRACE_S = 10.0

    def __init__(self, *, queue: DistributedQueue, plan: list,
                 profile: Profile, store: Any, corpus: Any,
                 workers: int, options: BuildOptions,
                 progress: "Callable | None" = None,
                 stop_requested: "Callable | None" = None) -> None:
        from repro.obs.telemetry import get_telemetry

        self.queue = queue
        self.plan = plan
        self.profile = profile
        self.store = store
        self.corpus = corpus
        self.workers = workers
        self.options = options
        self.progress = progress
        self._stop = stop_requested or (lambda: False)
        # A node's lease on its claims and its requeue budget are its
        # crew's lease and poison budget, one level up.
        self.lease_s = options.lease_timeout(node=True)
        self.tel = get_telemetry()
        self._tasks: "dict[str, _TaskState]" = {}
        self._records: "list[TaskRecord]" = []
        self._lost_nodes: "set[str]" = set()
        self._peer_stale: "dict[str, int]" = {}
        self._peer_segments: "dict[str, tuple]" = {}
        #: ``time.monotonic()`` of the next listing of the shared queue.
        self._supervise_due = 0.0

    # ------------------------------------------------------------------
    def run(self) -> None:
        from repro.experiments.nodeagent import NodeAgent

        trace = (self.tel.trace.to_dict() if self.tel.trace is not None
                 else None)
        self.queue.ensure_layout()
        self.queue.write_manifest(build_manifest(
            self.options, self.profile, self.store.root, trace))
        self._enqueue_plan()
        agent = NodeAgent(self.queue, self.options, self.profile,
                          str(self.store.root), workers=self.workers,
                          trace=trace, embedded=True)
        self.local_node = agent.node
        self.corpus.distributed = True
        try:
            while self.corpus.n_collected < len(self.plan):
                # A stopped embedded agent (its queue or store I/O
                # failed) runs nothing more; its shutdown below puts
                # its claims back for a peer or a resumed build.
                if self._stop() or agent.stopping:
                    self.corpus.interrupted = True
                    break
                self._round(agent)
        finally:
            self.queue.mark_complete()
            agent.shutdown()
            # The embedded crew's losses, beside the nodes' own.
            self.corpus.workers_replaced += agent.crew.replaced
            self.corpus.lease_expiries += agent.board.total_lease_expiries
            self._harvest_beats()
            self._wait_for_peers()
            self._reap_lost_segments()
            leftovers = self.queue.sweep()
            self.corpus.queue_leftovers = leftovers
            if self.tel.enabled:
                self.tel.emit("distqueue", action="swept",
                              leftovers=leftovers)

    def _round(self, agent: Any) -> None:
        """One round: tick the embedded agent, supervise the peers,
        collect the finished prefix of the plan.

        The tick blocks on the embedded crew's worker pipes, so a cell
        finished here wakes the round at once. Nothing can wake it for
        what a peer did — a shared directory has no cross-host
        notification — so ``nodes/`` and ``claims/`` are listed once
        per ``POLL_S`` whatever the local crew does in between, and no
        wait outlasts the next listing.
        """
        agent.tick(time.time(),
                   max(0.0, self._supervise_due - time.monotonic()))
        woke = time.monotonic()
        if woke >= self._supervise_due:
            self._supervise_due = woke + POLL_S
            self._supervise()
        self._collect()

    # ------------------------------------------------------------------
    def _enqueue_plan(self) -> None:
        """Publish one task per cell that is not already satisfied by
        the shared store (by the same rule as the inline replay)."""
        for planned in self.plan:
            record = TaskRecord.for_planned(planned, self.profile)
            self._records.append(record)
            self._tasks[record.task_id] = _TaskState(record)
            if self.store.outcome(record.cell_key,
                                  self.options.resume) is None:
                self.queue.publish(record)

    # ------------------------------------------------------------------
    # Node supervision: fencing, requeue, quarantine
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        beats = self._harvest_beats()
        by_node: "dict[str, list[Claim]]" = {}
        for claim in self.queue.claims():
            by_node.setdefault(claim.node, []).append(claim)
        for node, node_claims in by_node.items():
            if node == self.local_node:
                continue  # the embedded agent supervises its own crew
            beat = beats.get(node)
            fresh = (beat is not None and not beat.done
                     and beat.age_s <= self.lease_s)
            if fresh:
                if node in self._lost_nodes:
                    # The partition healed: the node beats again, and
                    # having re-read its fence it claims with live
                    # epochs — only its pre-fence leases stay revoked.
                    self._lost_nodes.discard(node)
                    if self.tel.enabled:
                        self.tel.emit("distqueue",
                                      action="node-recovered", node=node)
                continue
            if beat is None and any(
                    c.age_s <= self.lease_s
                    for c in node_claims):
                # Claimed but never beat: a node that just arrived, or
                # one that died on arrival — claim age decides which.
                continue
            floor = self.queue.fence_epoch(node)
            if node not in self._lost_nodes or any(
                    c.epoch > floor for c in node_claims):
                # First loss, or a recovered node lost *again* (its
                # post-recovery claims sit above the old fence): fence
                # at the node's newest epoch before touching claims.
                self._declare_lost(node, node_claims, beat)
                floor = self.queue.fence_epoch(node)
            self._revoke_node(
                node, [c for c in node_claims if c.epoch <= floor],
                reason="node-lost")

    def _declare_lost(self, node: str, node_claims: "list[Claim]",
                      beat: "NodeBeat | None") -> None:
        """Fence first, then revoke: after the fence write any publish
        attempt from the node's old epochs is rejected, so requeueing
        its claims can never race a zombie completion."""
        epochs = [c.epoch for c in node_claims]
        if beat is not None:
            epochs.append(beat.epoch)
            self._peer_segments[node] = beat.segments
        floor = self.queue.raise_fence(node, max(epochs, default=0))
        self._lost_nodes.add(node)
        self.corpus.nodes_lost += 1
        if self.tel.enabled:
            self.tel.emit("distqueue",
                          _trace_ctx=self.tel.child("node", node),
                          action="node-lost", node=node,
                          fence_epoch=floor, claims=len(node_claims),
                          segments=len(self._peer_segments.get(node, ())))

    def _revoke_node(self, node: str, node_claims: "list[Claim]",
                     reason: str) -> None:
        """Take a fenced node's claims back as a crew takes back a lost
        worker's lease: each charges its cell's poison budget and goes
        back to ``tasks/`` at once (the fence already refuses the old
        owner's publish), or to quarantine with the budget spent."""
        for claim in node_claims:
            state = self._tasks.get(claim.task_id)
            if state is None:
                continue
            if self.queue.is_done(claim.task_id):
                # Completed before the fence landed; the claim file is
                # litter now.
                self.queue.drop_claim(claim)
                continue
            state.requeues += 1
            self.corpus.lease_expiries += 1
            if state.requeues >= self.options.max_lease_expiries:
                self._quarantine(state, claim, reason)
                continue
            span = self.tel.child("task", claim.task_id)
            if self.tel.enabled:
                self.tel.emit("distqueue", _trace_ctx=span,
                              action="lease-revoked",
                              task=claim.task_id, node=node,
                              epoch=claim.epoch, reason=reason,
                              requeues=state.requeues)
            # A fenced owner that woke found its publish refused and
            # dropped the claim itself: there is nothing left to
            # rename, so the record is published anew (refused in turn
            # if the cell is pending, claimed or done).
            if (self.queue.release(claim)
                    or self.queue.publish(state.record)):
                self.corpus.queue_requeues += 1
                if self.tel.enabled:
                    self.tel.emit("distqueue", _trace_ctx=span,
                                  action="requeued",
                                  task=claim.task_id, node=node)

    def _quarantine(self, state: _TaskState, claim: Claim,
                    reason: str) -> None:
        """Global poison verdict: persisted through the shared store so
        every node (and every future resumed build) replays it."""
        failure = RunFailure.poison("node", state.requeues, reason)
        self.store.save_failure(state.record.cell_key, failure)
        self.queue.mark_done(state.record.task_id, {
            "status": "quarantined", "node": claim.node,
            "epoch": claim.epoch, "source": "run",
            "failure_kind": failure.kind})
        self.queue.drop_claim(claim)
        if self.tel.enabled:
            self.tel.emit(
                "distqueue",
                _trace_ctx=self.tel.child("task",
                                          state.record.task_id),
                action="quarantined",
                task=state.record.task_id, node=claim.node,
                requeues=state.requeues)

    # ------------------------------------------------------------------
    # Collection (plan order)
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        total = len(self.plan)
        while self.corpus.n_collected < total:
            run = self._resolve(self._records[self.corpus.n_collected])
            if run is None:
                break
            self.corpus.collect(run, total, self.progress)

    def _resolve(self, record: TaskRecord):
        """One cell's outcome, or None when still in flight. The store
        is read through its summary door, so the run carries a
        :class:`~repro.experiments.results.StoredRun` that loads the
        trace only if something reads it."""
        from repro.experiments.corpus import CorpusRun

        marker = self.queue.read_done(record.task_id)
        source = "cache"
        if marker is not None:
            if not self._marker_live(marker):
                self._reenqueue(record, stale=marker)
                return None
            source = str(marker.get("source", "run"))
        # A done marker vouches for whatever the store holds; without
        # one, only an entry the replay rule accepts counts.
        hit = self.store.outcome(
            record.cell_key, marker is None and self.options.resume)
        if isinstance(hit, RunFailure):
            return CorpusRun(record.algorithm, record.spec, None, None,
                             failure=hit, source=source)
        if hit is not None:
            return CorpusRun(record.algorithm, record.spec, hit,
                             hit.metrics, source=source)
        if marker is not None:
            self._reenqueue(record)
        return None

    def _marker_live(self, marker: dict) -> bool:
        """False for a done marker signed with a fenced epoch.

        Node agents check their fence before publishing, so one only
        lands in the razor-thin window where the fence write is in
        flight; the store bytes it points at may be from a revoked
        attempt. A chaos run asserts none is ever seen — the
        cooperative fence check catches everything.
        """
        node = str(marker.get("node", ""))
        try:
            epoch = int(marker.get("epoch", 0))
        except (TypeError, ValueError):
            epoch = 0
        return (node in ("", self.local_node)
                or marker.get("status") == "quarantined"
                or self.queue.check_fence(node, epoch))

    def _reenqueue(self, record: TaskRecord,
                   stale: "dict | None" = None) -> None:
        """Put back a cell whose done marker cannot be honoured: signed
        with a fenced epoch (*stale*; refused, counted, and the store
        entry goes with it), or vouching for an entry the store lost
        (quarantined as corrupt, or discarded with a stale marker while
        the replacement was publishing).

        Only once nobody holds a claim on the cell. While someone does
        — its completer about to let go, a replacement still running —
        ``publish`` refuses, and with the marker dropped and the claim
        let go next the cell would be nowhere: not pending, not
        claimed, not done. The holder lets go or is revoked, and the
        next round comes back here.
        """
        if any(c.task_id == record.task_id for c in self.queue.claims()):
            return
        self.queue.drop_done(record.task_id)
        if stale is not None:
            node = str(stale.get("node", ""))
            self.corpus.stale_done_markers += 1
            if self.tel.enabled:
                self.tel.emit(
                    "distqueue",
                    _trace_ctx=self.tel.child("task",
                                              record.task_id),
                    action="stale-done-rejected", task=record.task_id,
                    node=node, epoch=stale.get("epoch"))
            self.store.discard(record.cell_key)
        self.queue.publish(record)

    # ------------------------------------------------------------------
    # Peer accounting + shutdown hygiene
    # ------------------------------------------------------------------
    def _harvest_beats(self) -> "dict[str, NodeBeat]":
        """Read the peers' beats (``nodes/`` holds no beat of the
        coordinator's own node, which is counted here directly)."""
        beats = self.queue.read_beats()
        for node, beat in beats.items():
            self._peer_stale[node] = max(
                self._peer_stale.get(node, 0), beat.stale_rejections)
            if beat.segments:
                self._peer_segments[node] = beat.segments
        self.corpus.nodes_seen = max(self.corpus.nodes_seen,
                                     1 + len(self._peer_stale))
        self.corpus.stale_epoch_rejections = sum(
            self._peer_stale.values())
        return beats

    def _wait_for_peers(self) -> None:
        """Hold the queue (and its fences) open until every registered
        peer has either written its final ``done`` beat or is provably
        dead, bounded by the grace period.

        The silent-but-not-done case matters: a node frozen past its
        lease is already fenced, but tearing the fence files down
        before it wakes would let its stale publish through unchecked.
        Cross-host silence is indistinguishable from a partition, so
        those peers simply cost the full grace period. It is also how
        a woken zombie's rejection reaches ``stale_epoch_rejections``
        (on its next beat), and how peers' sinks, flushed before their
        ``done`` beats, are whole when ``build_corpus`` merges them."""
        deadline = time.monotonic() + self.PEER_EXIT_GRACE_S
        while True:
            pending = [b for b in self._harvest_beats().values()
                       if not b.done and not b.provably_dead()]
            if not pending or time.monotonic() >= deadline:
                return
            time.sleep(POLL_S)

    def _reap_lost_segments(self) -> None:
        """Unlink shared-memory segments published by nodes that died.

        ``GraphPlane`` cleans up via atexit, which a SIGKILL skips; the
        node's beats carried its segment names precisely so the
        coordinator can sweep them and leave no shm orphans.
        """
        from repro.graph import shm

        beats = self.queue.read_beats()
        for node, segments in self._peer_segments.items():
            beat = beats.get(node)
            if beat is not None and beat.done and node not in self._lost_nodes:
                continue  # clean exit unlinked its own segments
            for name in segments:
                if shm.unlink_segment(name) and self.tel.enabled:
                    self.tel.emit("distqueue", action="segment-reaped",
                                  node=node, segment=name)
