"""The worksite: worker processes, their heartbeats, and the
supervisor's view of both.

The supervised scheduler (:mod:`repro.experiments.scheduler`) splits
cleanly into pure decision logic (the task board) and the messy
process-management substrate this module owns:

- **WorkerCrew** — long-lived ``multiprocessing.Process`` workers,
  each with its own duplex pipe to the loop and nothing else: no queue,
  lock or feeder thread is shared between workers. Unlike
  :class:`~concurrent.futures.ProcessPoolExecutor`, a SIGKILLed worker
  does not poison the pool — it can lose only its own cell: the
  supervisor detects the death (the process is gone, or its pipe
  reached EOF or cut a message off), replaces the worker, and
  re-dispatches its task.
- **Heartbeats** — each worker owns one shared ``RawArray('d', 2)``
  of (lease epoch, last beat time). The worker sets the epoch when a
  task arrives, and a daemon thread stamps the time ten times per lease
  timeout. The supervisor reads the array to renew
  the lease of the epoch it names, so a *busy* worker on a
  legitimately slow cell never expires while a *dead or stopped* one
  does. A crew is always one machine, so no beat touches a file.
- **What a beat detects** — a beat thread keeps beating through a
  pure-Python livelock and a blocking syscall (it only needs the GIL
  now and then), so the lease catches a process that stops being
  scheduled: SIGSTOP, a cgroup freeze, a C call that holds the GIL. A
  livelocked or blocked *cell* is ended by its wall-clock limit
  instead, as a ``timeout`` failure; a dead worker by ``is_alive``.
- **Kill and stall injection** — ``REPRO_CHAOS_KILL`` marks a cell
  as it reaches a worker; the worker runs the cell without storing it,
  then SIGKILLs itself holding the lease, so the cell's events are
  written, its result is lost, and the whole cell runs again
  elsewhere. ``REPRO_INJECT_STALL`` simulates
  the stopped-worker failure mode SIGKILL cannot: the worker stays
  alive but stops making progress *and stops heartbeating*, which is
  exactly what the lease-expiry path must detect.

Workers ignore SIGINT (the supervisor decides when to stop
dispatching) and execute tasks through the same crash-isolation
boundary as the inline path (`_run_cell`), so a task-level fault
comes back as a recorded failure, never as a dead worker.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro._util.faulthooks import claim_token, hook_value
from repro.experiments.config import BuildOptions

#: Chaos kill: ``"<token-dir>:<p>"`` — a worker dispatched a cell
#: (a ``run`` task) SIGKILLs itself with probability ``p`` once the
#: cell has run and before it is stored or reported, spending one token
#: file of ``token-dir`` per kill, so a chaos run ends once the tokens
#: are gone.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"
#: Stall injection: ``"<substring>:<seconds>"`` — a worker dispatched a
#: task whose id contains the substring sleeps that long *with
#: heartbeats suspended* before executing, simulating a stopped worker.
INJECT_STALL_ENV = "REPRO_INJECT_STALL"
#: Optional token directory bounding stall injection (same atomic
#: claim-one-file protocol as ``REPRO_CHAOS_KILL``). Unset, every
#: matching dispatch stalls — which is how a poison cell is simulated.
INJECT_STALL_TOKENS_ENV = "REPRO_INJECT_STALL_TOKENS"


#: Beats per lease timeout: a lease survives nine missed beats, and
#: still expires a dead holder one lease timeout after its last beat.
BEATS_PER_LEASE = 10


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------
class HeartbeatWriter:
    """The beat emitter (daemon thread) of both levels of the fabric:
    it calls *publish* :data:`BEATS_PER_LEASE` times per *lease_s*, the
    lease timeout its beats renew (never more often than every 0.05 s)
    — the one place a beat interval is worked out.

    A crew worker's *publish* stamps the time into the worker's shared
    beat array; a peer node agent's writes its beat into the
    queue's ``nodes/``, the one beat that has to cross hosts.

    ``suspend()`` models a hang for stall and freeze injection: the
    thread keeps running but publishes nothing, so the supervisor's
    view goes stale exactly as it does for a process that stops being
    scheduled (SIGSTOP, a cgroup freeze, a C call holding the GIL).
    """

    def __init__(self, name: "int | str", lease_s: float,
                 publish: "Callable[[], None]") -> None:
        self.name = name
        self.every_s = max(0.05, float(lease_s) / BEATS_PER_LEASE)
        self._publish = publish
        self._suspended = False
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def start(self) -> None:
        self.beat()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"heartbeat-{self.name}")
        self._thread.start()

    def suspend(self) -> None:
        self._suspended = True

    def resume(self) -> None:
        self._suspended = False
        self.beat()

    def beat(self) -> None:
        if self._suspended:
            return
        try:
            self._publish()
        except OSError:
            pass  # missed beat (queue swept or unreachable); next retries

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.every_s):
            self.beat()


# ----------------------------------------------------------------------
# Task / result envelopes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskEnvelope:
    """One dispatched lease: which task, under which epoch, plus the
    worker-side payload (a PlannedRun for ``run`` tasks, a GraphSpec
    for ``materialize`` tasks)."""

    task_id: str
    epoch: int
    kind: str
    payload: Any


@dataclass(frozen=True)
class ResultEnvelope:
    """What a worker sends back. ``ok=False`` means the *harness*
    failed (unpicklable result, worksite bug) — task-level faults come
    back ``ok=True`` with the failure recorded inside the value."""

    task_id: str
    epoch: int
    worker: int
    ok: bool
    value: Any = None
    error: Any = None  # RunFailure when ok is False


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _chaos_marked(envelope: TaskEnvelope) -> bool:
    """Honor ``REPRO_CHAOS_KILL``: whether this worker is to die
    holding this cell's lease. Only cells are marked; a materialize
    task is the scheduler's to lose, not a cell's."""
    if envelope.kind != "run":
        return False
    token_dir, _, prob = os.environ.get(CHAOS_KILL_ENV, "").rpartition(":")
    if not token_dir:
        return False
    draw = random.Random(os.getpid() * 1_000_003 + envelope.epoch).random()
    return draw < float(prob) and claim_token(Path(token_dir))


def _maybe_stall(envelope: TaskEnvelope, beats: HeartbeatWriter) -> None:
    """Honor ``REPRO_INJECT_STALL`` for a matching task id."""
    seconds = hook_value(INJECT_STALL_ENV, envelope.task_id)
    if seconds is None:
        return
    token_dir = os.environ.get(INJECT_STALL_TOKENS_ENV)
    if token_dir and not claim_token(Path(token_dir)):
        return
    beats.suspend()
    time.sleep(float(seconds))
    beats.resume()


def _execute_envelope(envelope: TaskEnvelope, options: BuildOptions,
                      profile: Any, store: Any) -> Any:
    """Run one task body. Imports are lazy: the worksite stays loadable
    without pulling the whole corpus module into importers that only
    need the heartbeat types."""
    from repro.experiments import corpus as corpus_mod
    from repro.experiments.graph_cache import materialize_problem
    from repro.graph import shm
    from repro.obs.telemetry import get_telemetry

    payload, manifest = envelope.payload
    if manifest is not None:
        shm.install_manifest(manifest)
    if envelope.kind == "materialize":
        # Through materialize_problem, so this worker's cache keeps the
        # graph warm; the span's event is what counts the resolution,
        # as in run_computation. The problem is pickled back to the
        # loop, which publishes it.
        with get_telemetry().span("materialize") as span:
            problem, source = materialize_problem(payload)
            span.set(source=source)
        return payload.cache_key(), problem
    if envelope.kind != "run":
        raise ValueError(f"unknown task kind {envelope.kind!r}")
    return corpus_mod._run_cell(payload, profile, store, options)


def _arm_parent_death_signal() -> None:
    """Ask the kernel to SIGKILL this worker when its parent dies.

    A SIGKILLed supervisor (or node agent — the distributed chaos runs
    kill whole agents) gets no chance to run its crew shutdown, and the
    ``daemon`` flag only helps on clean interpreter exit. On Linux,
    ``PR_SET_PDEATHSIG`` closes that gap at the kernel level; elsewhere
    the worker's pipe reaching EOF ends its loop (once idle).
    """
    try:
        import ctypes

        PR_SET_PDEATHSIG = 1
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:  # pragma: no cover - non-Linux platforms
        pass


def worker_main(worker: int, conn, beat, lease_s: float,
                options: BuildOptions, profile: Any,
                store_root: "str | None", inherited: tuple = ()) -> None:
    """Crew worker loop: beat, take a lease, execute, send the result.

    *conn* is the worker's end of its own duplex pipe to the loop; the
    worker closes the loop's ends it inherited at fork (*inherited*:
    its own pipe's and every older sibling's), so no channel is shared
    between workers and the pipe reaches EOF here when the loop goes.

    *beat* is the worker's shared (lease epoch, last beat time) array:
    the epoch is set as each task arrives, the time by the beat thread,
    which beats at the rate the loop's lease timeout *lease_s* sets.

    *options*, *profile* and *store_root* are the build-wide
    configuration, forked in once instead of riding on every task. A
    ``None`` store root means the worker never writes the store (a node
    agent's crew: publication is the agent's, behind its fence).

    SIGINT is ignored (the supervisor owns shutdown). *Any* exception
    escaping a task body — already rare, since ``_run_cell`` is
    its own boundary — comes back as an ``ok=False`` envelope rather
    than killing the loop. A worker whose parent vanished exits on its
    own: PDEATHSIG kills it instantly on Linux, and the pipe's EOF ends
    the loop elsewhere.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _arm_parent_death_signal()
    for end in inherited:
        end.close()

    from repro.experiments.corpus import _configure_worker_obs
    from repro.experiments.failures import RunFailure
    from repro.experiments.results import ResultStore

    _configure_worker_obs(options)
    # One store for the worker's life, so its summary index is read
    # once per worker rather than once per cell.
    store = ResultStore(store_root) if store_root is not None else None

    def stamp() -> None:
        beat[1] = time.time()

    beats = HeartbeatWriter(worker, lease_s, stamp)
    beats.start()
    try:
        while True:
            try:
                envelope = conn.recv()
            except (EOFError, OSError):
                break  # the loop's end closed: the build is over
            if envelope is None:
                break
            beat[0] = envelope.epoch
            beats.beat()
            try:
                doomed = _chaos_marked(envelope)
                _maybe_stall(envelope, beats)
                value = _execute_envelope(envelope, options, profile,
                                          None if doomed else store)
                if doomed:
                    # The cell ran and wrote its events but stored
                    # nothing: its re-dispatch runs it again whole.
                    os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover
                conn.send(ResultEnvelope(
                    envelope.task_id, envelope.epoch, worker, True,
                    value=value))
            except BaseException as exc:
                try:
                    conn.send(ResultEnvelope(
                        envelope.task_id, envelope.epoch, worker, False,
                        error=RunFailure.from_exception(exc)))
                except Exception:
                    break  # the loop's end closed: it is shutting down
    finally:
        beats.stop()


# ----------------------------------------------------------------------
# Worker crew (supervisor side)
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    worker: int
    process: Any
    #: The loop's end of the worker's own duplex pipe.
    conn: Any
    #: The worker's shared (lease epoch, last beat time).
    beat: Any
    #: Task id the supervisor believes this worker is executing.
    task_id: "str | None" = None
    #: Set when the pipe reached EOF or cut a message off: the worker
    #: counts as dead from then on, whatever its process says.
    severed: bool = False

    @property
    def idle(self) -> bool:
        return self.task_id is None

    def alive(self) -> bool:
        return not self.severed and self.process.is_alive()


class WorkerCrew:
    """Spawn, feed, reap, and replace the build's worker processes,
    whose beats renew leases of *lease_s*."""

    def __init__(self, n_workers: int, lease_s: float,
                 options: BuildOptions, profile: Any,
                 store_root: "str | None") -> None:
        import multiprocessing as mp

        # The fused scatter's SpMV needs scipy.sparse (~0.2 s to
        # import): loaded once here, every forked worker shares it
        # instead of importing it again on its first fused step.
        import scipy.sparse  # noqa: F401

        try:
            self._mp = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = mp.get_context()
        self.worker_args = (lease_s, options, profile, store_root)
        self.workers: "dict[int, WorkerHandle]" = {}
        self.replaced = 0
        self._next_id = 0
        for _ in range(n_workers):
            self.spawn()

    def spawn(self) -> WorkerHandle:
        worker = self._next_id
        self._next_id += 1
        conn, child_conn = self._mp.Pipe()
        beat = self._mp.RawArray("d", 2)
        inherited = (conn, *(h.conn for h in self.workers.values()))
        process = self._mp.Process(
            target=worker_main,
            args=(worker, child_conn, beat, *self.worker_args, inherited),
            name=f"repro-crew-{worker}", daemon=True)
        process.start()
        # Only the worker holds its end now: its death is this pipe's EOF.
        child_conn.close()
        handle = WorkerHandle(worker, process, conn, beat)
        self.workers[worker] = handle
        return handle

    def dispatch(self, handle: WorkerHandle,
                 envelope: TaskEnvelope) -> None:
        handle.task_id = envelope.task_id
        try:
            handle.conn.send(envelope)
        except OSError:
            handle.severed = True  # died idle: reaped, and the task revoked

    def mark_idle(self, worker: int) -> None:
        handle = self.workers.get(worker)
        if handle is not None:
            handle.task_id = None

    def idle_workers(self) -> "list[WorkerHandle]":
        return [h for h in self.workers.values()
                if h.idle and h.alive()]

    def dead_workers(self) -> "list[WorkerHandle]":
        return [h for h in self.workers.values() if not h.alive()]

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL a (presumed hung) worker and reap it."""
        if handle.process.is_alive():
            handle.process.kill()
        self.remove(handle)

    def remove(self, handle: WorkerHandle) -> None:
        """Reap a worker that already died on its own."""
        handle.process.join(timeout=5.0)
        self._close(handle)
        self.workers.pop(handle.worker, None)

    def poll_results(self, timeout: float) -> "list[ResultEnvelope]":
        """Wait up to *timeout* for any worker's pipe, then take the
        message of each pipe that has one (a worker sends one result
        per task, and gets no next task before it is read). A pipe at
        EOF, or one whose message is cut off partway, severs its
        worker, which the loop then reaps as dead."""
        from multiprocessing.connection import wait

        ends = {h.conn: h for h in self.workers.values() if not h.severed}
        results = []
        for conn in wait(list(ends), timeout):
            try:
                results.append(conn.recv())
            except (EOFError, OSError):
                ends[conn].severed = True
        return results

    def shutdown(self, *, kill: bool = False) -> None:
        """Stop every worker: politely (sentinel + join) or by SIGKILL
        when the build is bailing out and workers may be hung."""
        for handle in list(self.workers.values()):
            if kill or not handle.alive():
                self.kill(handle)
                continue
            try:
                handle.conn.send(None)
            except OSError:
                self.kill(handle)
        for handle in list(self.workers.values()):
            handle.process.join(timeout=5.0)
            self.kill(handle)

    def _close(self, handle: WorkerHandle) -> None:
        handle.conn.close()
        try:
            handle.process.close()
        except Exception:  # pragma: no cover - still running
            pass
