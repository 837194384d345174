"""Iteration-level checkpoint/restore: preemption-tolerant execution.

Long corpus builds die for reasons that have nothing to do with the
computation: wall-clock limits, OOM kills, preempted workers, Ctrl-C.
Before this subsystem, any of those forfeited every completed iteration
of the in-flight run. Distributed GraphLab answered the same problem
with snapshot-based fault tolerance; checkpoint-restart is likewise the
standard preemption answer in large training stacks. This module is the
single-machine analog for all four engines:

- :class:`CheckpointPolicy` — *when* to snapshot (every N iterations
  and/or every T seconds).
- :class:`SnapshotStore` — *where* snapshots live, crash-consistently:
  each write is staged and published by :mod:`repro._util.durable`;
  the previous generation is kept as a fallback; a blake2b checksum
  over the payload is verified on load, and corrupt snapshots are
  quarantined.
- :class:`CheckpointConfig` — one run's checkpointing contract (store +
  policy + key), carried inside the engine options.
- :class:`CheckpointSession` — the engine-side driver: decides when a
  snapshot is due, captures/restores the full run state (program state
  arrays, context RNG/params/work ledger, health-monitor watchdog
  state, the partial :class:`~repro.behavior.trace.RunTrace`, and the
  engine's own loop state), and cleans up after a completed run.

The restore guarantee is exact: because every engine is deterministic
given (program state, context state, scheduler/frontier state), a run
killed at iteration *k* and resumed from its snapshot produces a
bit-identical final vertex state and an identical behavior vector to an
uninterrupted run. The test suite proves this per engine.

Snapshots are serialized with :mod:`pickle` (the state is arbitrary
numpy arrays, RNG generators, and scheduler objects — exactness matters
more than a readable format). They are a local, trusted cache with the
same threat model as the result store; never load snapshots from an
untrusted directory.

Two fault hooks drive the resilience tests:

- ``REPRO_INJECT_KILL="<substring>:<iteration>"`` raises
  :class:`SimulatedKillError` immediately after the snapshot covering
  that iteration is published — a deterministic stand-in for dying
  right after a commit.
- ``REPRO_CHAOS_KILL="<token-dir>:<p>"`` SIGKILLs the *process* with
  probability ``p`` after a snapshot publish, consuming one kill token
  (a file in ``token-dir``) per kill so a chaos run terminates once the
  tokens are spent.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util import durable
from repro._util.errors import ValidationError
from repro._util.faulthooks import claim_token, hook_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.behavior.trace import RunTrace
    from repro.engine.context import Context
    from repro.engine.health import HealthMonitor
    from repro.engine.program import VertexProgram

#: Environment variable overriding the default snapshot directory.
CHECKPOINT_ENV = "REPRO_CHECKPOINT_DIR"
#: Deterministic kill injection: ``"<substring>:<iteration>"``.
INJECT_KILL_ENV = "REPRO_INJECT_KILL"
#: Probabilistic process SIGKILL: ``"<token-dir>:<p>"``.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"

#: Snapshot file magic + format version.
_MAGIC = b"REPROSNAP1\n"
#: blake2b digest size (bytes) of the payload checksum.
_DIGEST_SIZE = 16
#: Subdirectory (under the store root) receiving corrupt snapshots.
QUARANTINE_DIRNAME = "quarantine"
#: Default quarantine retention (see ResultStore.gc_quarantine): every
#: quarantine call sweeps the oldest entries beyond this bound.
QUARANTINE_MAX_ENTRIES = 256


class SimulatedKillError(RuntimeError):
    """Raised by the ``REPRO_INJECT_KILL`` hook right after a snapshot
    publish — the deterministic, in-process stand-in for a worker dying
    immediately after committing progress."""


def default_checkpoint_dir() -> Path:
    env = os.environ.get(CHECKPOINT_ENV)
    if env:
        return Path(env)
    return Path.cwd() / ".repro_checkpoints"


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointPolicy:
    """When to snapshot: every N iterations, every T seconds, or both
    (whichever comes first).

    The *when* never affects correctness — a snapshot captures exact
    state, so resume is equivalence-preserving wherever it was taken —
    only how much forward progress a preemption can forfeit.
    """

    every_iterations: "int | None" = None
    every_seconds: "float | None" = None

    def __post_init__(self) -> None:
        if self.every_iterations is None and self.every_seconds is None:
            raise ValidationError(
                "checkpoint policy needs every_iterations and/or "
                "every_seconds")
        if self.every_iterations is not None and self.every_iterations < 1:
            raise ValidationError("every_iterations must be >= 1")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValidationError("every_seconds must be positive")

    @classmethod
    def parse(cls, spec: "str | int | CheckpointPolicy") -> "CheckpointPolicy":
        """Parse CLI specs: ``"5"`` (iterations), ``"2.5s"`` (seconds),
        or ``"5,30s"`` (both)."""
        if isinstance(spec, CheckpointPolicy):
            return spec
        if isinstance(spec, int):
            return cls(every_iterations=spec)
        every_n: "int | None" = None
        every_s: "float | None" = None
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            try:
                if part.endswith("s"):
                    every_s = float(part[:-1])
                else:
                    every_n = int(part)
            except ValueError as exc:
                raise ValidationError(
                    f"checkpoint spec must be '<N>', '<T>s' or '<N>,<T>s', "
                    f"got {spec!r}") from exc
        return cls(every_iterations=every_n, every_seconds=every_s)

    def __str__(self) -> str:
        bits = []
        if self.every_iterations is not None:
            bits.append(f"{self.every_iterations}")
        if self.every_seconds is not None:
            bits.append(f"{self.every_seconds:g}s")
        return ",".join(bits)


# ----------------------------------------------------------------------
# Snapshot + store
# ----------------------------------------------------------------------
@dataclass
class Snapshot:
    """One crash-consistent capture of a run in flight.

    ``iteration`` is the *resume point*: the index of the next
    iteration (round / superstep) to execute. ``payload`` carries the
    engine-specific loop state plus the common program/context/monitor
    state captured by :func:`capture_runtime`.
    """

    engine: str
    algorithm: str
    n_vertices: int
    n_edges: int
    iteration: int
    trace: "RunTrace"
    payload: dict[str, Any] = field(default_factory=dict)
    #: Wall-clock seconds already spent before this snapshot, so a
    #: resumed run reports cumulative wall time.
    elapsed_s: float = 0.0


class SnapshotStore:
    """Directory-backed snapshot store, crash-consistent by layout.

    Per key the store keeps up to two generations: ``<entry>.snap``
    (latest) and ``<entry>.prev.snap`` (the one before). A save stages
    into a writer-unique temp file, demotes the current latest to
    ``.prev``, then publishes via ``os.replace`` — at every instant at
    least one complete generation is on disk, so a process killed
    mid-save can always resume. Loads verify a blake2b checksum over
    the pickled payload; a corrupt latest is quarantined and the load
    falls back to the previous generation, then to a cold start.
    """

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = (Path(root) if root is not None
                     else default_checkpoint_dir())
        self._quarantine = durable.QuarantineDir(
            self.root / QUARANTINE_DIRNAME, "*.snap*")

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self._quarantine.root

    def _latest_path(self, key: str) -> Path:
        return self.root / f"{durable.entry_name(key)}.snap"

    def _prev_path(self, key: str) -> Path:
        return self.root / f"{durable.entry_name(key)}.prev.snap"

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(snapshot: Snapshot) -> bytes:
        payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
        return _MAGIC + digest + payload

    @staticmethod
    def _decode(blob: bytes) -> Snapshot:
        """Checksum-verify and unpickle; raises ValidationError on any
        corruption (bad magic, short file, digest mismatch, torn
        pickle)."""
        if (not blob.startswith(_MAGIC)
                or len(blob) < len(_MAGIC) + _DIGEST_SIZE):
            raise ValidationError("snapshot header corrupt")
        digest = blob[len(_MAGIC):len(_MAGIC) + _DIGEST_SIZE]
        payload = blob[len(_MAGIC) + _DIGEST_SIZE:]
        actual = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
        if actual != digest:
            raise ValidationError("snapshot checksum mismatch")
        try:
            snapshot = pickle.loads(payload)
        except Exception as exc:  # torn/garbled pickle stream
            raise ValidationError(f"snapshot payload unreadable: {exc}") \
                from exc
        if not isinstance(snapshot, Snapshot):
            raise ValidationError("snapshot payload is not a Snapshot")
        return snapshot

    def save(self, key: str, snapshot: Snapshot) -> Path:
        """Publish a new latest generation, demoting the old one.

        Transient disk faults (EIO, ENOSPC, ESTALE) during the stage/
        demote/publish sequence get bounded jittered retries — the
        sequence is idempotent, so re-running it after a partial
        failure still leaves at least one complete generation.
        """
        from repro.obs.telemetry import get_telemetry

        started = time.perf_counter()
        latest = self._latest_path(key)
        blob = self._encode(snapshot)

        def publish() -> None:
            # The new generation is whole on disk before the old one
            # is demoted, so a kill at any point leaves one to resume.
            with durable.staged(latest) as tmp:
                tmp.write_bytes(blob)
                try:
                    os.replace(latest, self._prev_path(key))
                except FileNotFoundError:
                    pass  # no latest yet, or a concurrent saver demoted it

        def count_retry(exc: OSError, attempt: int,
                        delay_s: float) -> None:
            tel = get_telemetry()
            if tel.enabled:
                tel.inc("checkpoint_disk_retries_total")
                tel.emit("checkpoint", action="disk-retry",
                         errno=exc.errno, attempt=attempt,
                         backoff_s=delay_s)

        durable.retry_transient_disk(publish, key=f"snap:{key}",
                                     on_retry=count_retry)
        tel = get_telemetry()
        if tel.enabled:
            elapsed = time.perf_counter() - started
            tel.inc("checkpoint_publishes_total")
            tel.inc("checkpoint_published_bytes_total", len(blob))
            tel.observe("checkpoint_publish_seconds", elapsed)
            tel.emit("checkpoint", action="publish", key=key,
                     iteration=snapshot.iteration,
                     bytes=len(blob), seconds=elapsed)
        return latest

    def quarantine(self, path: Path) -> "Path | None":
        """Move a corrupt snapshot aside; None if it vanished first.
        A move that fails otherwise raises its :class:`OSError`."""
        from repro.obs.telemetry import get_telemetry

        dest = self._quarantine.move(path)
        if dest is None:
            return None
        tel = get_telemetry()
        if tel.enabled:
            tel.inc("checkpoint_quarantined_total")
            tel.emit("checkpoint", action="quarantine", file=str(path.name))
        # Bounded retention: sweep the oldest entries past the cap so
        # resumed builds cannot grow the quarantine without limit.
        self.gc_quarantine(QUARANTINE_MAX_ENTRIES)
        return dest

    def gc_quarantine(self, keep: int = QUARANTINE_MAX_ENTRIES) -> int:
        """Oldest-first sweep keeping the ``keep`` newest quarantined
        snapshots; returns how many were removed."""
        return self._quarantine.sweep(keep)

    def _load_one(self, path: Path) -> "Snapshot | None":
        """Read one generation; quarantine and report None if corrupt."""
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.quarantine(path)
            return None
        try:
            return self._decode(blob)
        except ValidationError:
            self.quarantine(path)
            return None

    def load_latest(self, key: str) -> "Snapshot | None":
        """Newest readable generation for a key, or None (cold start).

        A corrupt latest generation falls back to the previous one;
        corrupt files are quarantined, never consumed and never fatal.
        """
        from repro.obs.telemetry import get_telemetry

        started = time.perf_counter()
        snapshot = self._load_one(self._latest_path(key))
        if snapshot is None:
            snapshot = self._load_one(self._prev_path(key))
        if snapshot is not None:
            tel = get_telemetry()
            if tel.enabled:
                elapsed = time.perf_counter() - started
                tel.inc("checkpoint_restores_total")
                tel.observe("checkpoint_restore_seconds", elapsed)
                tel.emit("checkpoint", action="restore", key=key,
                         iteration=snapshot.iteration, seconds=elapsed)
        return snapshot

    def latest_iteration(self, key: str) -> "int | None":
        """Resume point of the newest readable snapshot, or None."""
        snapshot = self.load_latest(key)
        return None if snapshot is None else snapshot.iteration

    def discard(self, key: str) -> int:
        """Drop every generation for a key (run completed); returns the
        number of files removed."""
        removed = 0
        for path in (self._latest_path(key), self._prev_path(key)):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        return removed

    def n_quarantined(self) -> int:
        return self._quarantine.count()


# ----------------------------------------------------------------------
# Config + session
# ----------------------------------------------------------------------
@dataclass
class CheckpointConfig:
    """One run's checkpointing contract, carried in engine options."""

    store: SnapshotStore
    policy: CheckpointPolicy
    #: Store key identifying this run (corpus cells use their cache key).
    key: str
    #: Attempt to resume from the newest snapshot at run start.
    resume: bool = True
    #: Remove the run's snapshots once it completes normally.
    discard_on_success: bool = True


def capture_runtime(program: "VertexProgram", ctx: "Context",
                    monitor: "HealthMonitor") -> dict[str, Any]:
    """Common snapshot state shared by every engine: the program's
    entire instance state (vertex/edge arrays and scalars), the
    context's RNG / params / work ledger, and the health monitor's
    watchdog history."""
    return {
        "program_state": dict(vars(program)),
        "rng": ctx.rng,
        "params": ctx.params,
        "extra_work": ctx._extra_work,
        "monitor": monitor.state_dict(),
    }


def restore_runtime(payload: dict[str, Any], program: "VertexProgram",
                    ctx: "Context", monitor: "HealthMonitor") -> None:
    """Inverse of :func:`capture_runtime`: rebind the unpickled state
    onto the fresh program/context/monitor (``program.init`` is *not*
    called on a resumed run)."""
    program.__dict__.clear()
    program.__dict__.update(payload["program_state"])
    ctx.rng = payload["rng"]
    ctx.params = payload["params"]
    ctx._extra_work = payload["extra_work"]
    monitor.restore_state(payload["monitor"])


class CheckpointSession:
    """Engine-side checkpoint driver for one run.

    Construct via :meth:`begin` (None config → None session, so engine
    code reads ``if session is not None``). The session owns the policy
    clock, the save/kill-hook sequence, and completion cleanup.
    """

    def __init__(self, config: CheckpointConfig) -> None:
        self.config = config
        self.saved = 0
        self._last_saved_iteration: "int | None" = None
        self._last_saved_at = time.monotonic()

    @classmethod
    def begin(cls, config: "CheckpointConfig | None") \
            -> "CheckpointSession | None":
        return None if config is None else cls(config)

    # ------------------------------------------------------------------
    def load(self, *, engine: str, program: "VertexProgram",
             problem) -> "Snapshot | None":
        """Resume snapshot for this run, identity-checked.

        A snapshot recorded by a different engine/algorithm/graph under
        the same key means the key discipline was violated — that is a
        caller bug, reported loudly rather than silently mixing state.
        """
        if not self.config.resume:
            return None
        snapshot = self.config.store.load_latest(self.config.key)
        if snapshot is None:
            return None
        graph = problem.graph
        if (snapshot.engine != engine
                or snapshot.algorithm != program.name
                or snapshot.n_vertices != graph.n_vertices
                or snapshot.n_edges != graph.n_edges):
            raise ValidationError(
                f"snapshot {self.config.key!r} was recorded by "
                f"{snapshot.algorithm}@{snapshot.engine} on a "
                f"{snapshot.n_vertices}-vertex graph; refusing to resume "
                f"{program.name}@{engine} on {graph.n_vertices} vertices")
        self._last_saved_iteration = snapshot.iteration
        return snapshot

    def due(self, completed_iteration: int) -> bool:
        """Is a snapshot due after ``completed_iteration`` finished?"""
        policy = self.config.policy
        if policy.every_iterations is not None:
            done_since = (completed_iteration + 1
                          if self._last_saved_iteration is None
                          else completed_iteration + 1
                          - self._last_saved_iteration)
            if done_since >= policy.every_iterations:
                return True
        if policy.every_seconds is not None:
            if (time.monotonic() - self._last_saved_at
                    >= policy.every_seconds):
                return True
        return False

    def save(self, snapshot: Snapshot) -> None:
        """Publish a snapshot, then run the kill hooks (so an injected
        death always lands *after* a commit — the chaos harness is then
        guaranteed forward progress across kill/resume cycles)."""
        self.config.store.save(self.config.key, snapshot)
        self.saved += 1
        self._last_saved_iteration = snapshot.iteration
        self._last_saved_at = time.monotonic()
        maybe_kill(self.config.key, snapshot.iteration - 1)

    def save_state(self, *, engine: str, program: "VertexProgram",
                   problem, ctx: "Context", monitor: "HealthMonitor",
                   trace: "RunTrace", next_iteration: int,
                   elapsed_s: float, extra: dict[str, Any]) -> None:
        """Capture and publish one full-run snapshot: the common
        program/context/monitor runtime plus the engine's own loop state
        (``extra``), resumable at ``next_iteration``."""
        payload = capture_runtime(program, ctx, monitor)
        payload.update(extra)
        graph = problem.graph
        self.save(Snapshot(
            engine=engine,
            algorithm=program.name,
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            iteration=next_iteration,
            trace=trace,
            payload=payload,
            elapsed_s=elapsed_s,
        ))

    def complete(self, trace: "RunTrace") -> None:
        """End of run: annotate the trace; drop snapshots only on a
        healthy completion (a ``degrade`` stop keeps its final flush on
        disk for post-mortem inspection and possible re-runs)."""
        trace.meta["checkpoints_written"] = self.saved
        if self.config.discard_on_success and not trace.degraded:
            self.config.store.discard(self.config.key)


# ----------------------------------------------------------------------
# Kill hooks (resilience testing)
# ----------------------------------------------------------------------
def maybe_kill(run_key: str, iteration: int) -> None:
    """Honor the kill-injection env hooks after a snapshot publish."""
    at = hook_value(INJECT_KILL_ENV, run_key)
    if at is not None and iteration == int(at):
        raise SimulatedKillError(
            f"injected kill for {run_key} after the iteration-"
            f"{iteration} snapshot")
    chaos = os.environ.get(CHAOS_KILL_ENV)
    if chaos and ":" in chaos:
        token_dir, _, prob = chaos.rpartition(":")
        if token_dir and np.random.default_rng(
                os.getpid() * 1_000_003 + iteration).random() < float(prob):
            if claim_token(Path(token_dir)):
                os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

