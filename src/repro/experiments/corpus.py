"""The behavior corpus: every run of the experiment matrix, executed,
cached, and projected into the behavior space.

Paper Section 5.2: "for eleven algorithms, we have a total of 215 runs
over 11 algorithms from across three application domains ...
Unfortunately, 5 runs of AD with largest graph size failed." The
corpus reproduces exactly that shape: 11 × 20 planned runs with AD's
largest-size runs failing on the engine memory budget.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro._util.errors import ValidationError
from repro.behavior.metrics import BehaviorMetrics, compute_metrics
from repro.behavior.run import run_computation
from repro.behavior.space import BehaviorVector, normalize_corpus
from repro.behavior.trace import RunTrace
from repro.behavior.validate import validate_trace
from repro.experiments.config import (
    BuildOptions,
    ExperimentMatrix,
    GraphSpec,
    PlannedRun,
    Profile,
    get_profile,
)
from repro.experiments.failures import RunFailure, full_jitter_backoff
from repro.experiments.results import ResultStore, StoredRun
from repro.obs.events import (
    EVENTS_FILENAME,
    merge_sinks,
    worker_sink_path,
)
from repro.obs.telemetry import (
    OBS_DIR_ENV,
    configure,
    deactivate,
    get_telemetry,
    peak_rss_bytes,
    resolve_obs_level,
)
from repro.obs.tracing import TraceContext, derive_run_id


class _TraceField:
    """Descriptor behind :attr:`CorpusRun.trace`. A run served from the
    store's summary index is built with a
    :class:`~repro.experiments.results.StoredRun` in the trace's place;
    the first read of ``trace`` loads the trace through it."""

    def __get__(self, run: "CorpusRun | None", owner: "type | None" = None):
        if run is None:
            # Class access: tells @dataclass the field has no default.
            raise AttributeError("trace")
        held = run.__dict__["trace"]
        if isinstance(held, StoredRun):
            held = run.__dict__["trace"] = held.load()
        return held

    def __set__(self, run: "CorpusRun", value: Any) -> None:
        run.__dict__["trace"] = value


@dataclass
class CorpusRun:
    """One executed (or failed) cell of the corpus."""

    algorithm: str
    spec: GraphSpec
    #: None for a failed cell. Read ``ok`` / ``degraded`` / ``health``
    #: where those are all that is wanted: they never load a trace.
    trace: "RunTrace | None" = _TraceField()
    metrics: "BehaviorMetrics | None"
    failure: "RunFailure | None" = None
    #: ``"run"`` if this result was (re-)executed in this build,
    #: ``"cache"`` if it was loaded from the result store.
    source: str = "run"
    #: Seconds spent persisting the trace to the result store (only for
    #: executed cells; the trace itself carries ``materialize_s`` and
    #: ``engine_s`` in its meta).
    store_s: "float | None" = None

    @property
    def _held(self) -> "RunTrace | StoredRun | None":
        """The trace or its stand-in, whichever is there: no load."""
        return self.__dict__["trace"]

    @property
    def ok(self) -> bool:
        return self._held is not None

    @property
    def degraded(self) -> bool:
        """The trace's ``degraded`` flag (False for a failed cell)."""
        return self.ok and self._held.degraded

    @property
    def health(self) -> dict:
        """The trace's health verdict."""
        return self._held.health

    @property
    def tag(self) -> tuple:
        """Run identity carried onto behavior vectors:
        ``(algorithm, nedges, alpha)``."""
        return (self.algorithm, self.spec.nedges, self.spec.alpha)


@dataclass
class BehaviorCorpus:
    """All successful runs plus the recorded failures."""

    profile: Profile
    runs: list[CorpusRun] = field(default_factory=list)
    failures: list[CorpusRun] = field(default_factory=list)
    build_seconds: float = 0.0
    #: True when the build stopped early on a stop request (SIGINT);
    #: cells not reached are simply absent and a rerun picks them up.
    interrupted: bool = False
    #: Whether the shared-memory graph plane was active for this build.
    graph_plane: bool = False
    #: Graphs pre-materialized and published, and the time that took.
    premat_graphs: int = 0
    premat_seconds: float = 0.0
    #: Telemetry identifiers when the build ran with ``obs != "off"``:
    #: the run id stamped on every event, and the directory holding the
    #: event log.
    run_id: "str | None" = None
    obs_dir: "str | None" = None
    #: Supervised-scheduler accounting (multi-worker and distributed
    #: builds): leases lost to dead/hung workers or lost nodes, and
    #: workers replaced.
    lease_expiries: int = 0
    workers_replaced: int = 0
    #: Distributed-queue accounting (``build_corpus(distributed=...)``):
    #: whether this build ran over the shared work queue, how many
    #: distinct node agents ever registered, how many were declared
    #: lost (fenced), how many store attempts were rejected by an epoch
    #: fence across all nodes, how many revoked leases were
    #: re-dispatched, how many done markers were refused for carrying a
    #: fenced epoch, and how many queue files survived the final sweep
    #: (0 on a clean build).
    distributed: bool = False
    nodes_seen: int = 0
    nodes_lost: int = 0
    stale_epoch_rejections: int = 0
    queue_requeues: int = 0
    stale_done_markers: int = 0
    queue_leftovers: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_collected(self) -> int:
        """Cells collected so far, failed ones included."""
        return len(self.runs) + len(self.failures)

    def collect(self, run: CorpusRun, total: int,
                progress: "Callable[[str], None] | None" = None) -> None:
        """Take one finished cell, in plan order — the single collector
        behind the inline loop, the supervisor and the coordinator:
        file the run, and report progress as event and as line."""
        tel = get_telemetry()
        (self.runs if run.ok else self.failures).append(run)
        if tel.enabled or progress is not None:
            event = progress_event(run, self.n_collected, total)
            tel.emit("progress", **event)
            if progress is not None:
                progress(format_progress(event))

    @property
    def n_executed(self) -> int:
        """Cells actually (re-)executed in this build (not cache hits)."""
        return sum(1 for r in self.runs + self.failures
                   if r.source == "run")

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.runs + self.failures
                   if r.source == "cache")

    @property
    def unexpected_failures(self) -> "list[CorpusRun]":
        """Failures that are harness faults (crash/timeout/numeric/...)
        rather than the paper's by-design out-of-budget runs."""
        return [f for f in self.failures
                if f.failure is not None and not f.failure.expected]

    @property
    def degraded_runs(self) -> "list[CorpusRun]":
        """Runs stopped early by a convergence watchdog under the
        ``degrade`` health policy. Their partial traces are kept for
        inspection but excluded from :meth:`vectors` — a truncated
        trace would distort the ensemble search's behavior space."""
        return [r for r in self.runs if r.degraded]

    def vectors(self, *, scheme: str = "max") -> list[BehaviorVector]:
        """Corpus-normalized behavior vectors, tagged with run identity
        (healthy runs only; degraded partial traces are excluded)."""
        healthy = [r for r in self.runs if not r.degraded]
        metrics = [r.metrics for r in healthy]
        tags = [r.tag for r in healthy]
        return normalize_corpus(metrics, scheme=scheme, tags=tags)

    def by_algorithm(self, algorithm: str) -> list[CorpusRun]:
        return [r for r in self.runs if r.algorithm == algorithm]

    def by_structure(self, nedges: int, alpha: float) -> list[CorpusRun]:
        """Runs sharing one graph structure (size, α) across domains —
        the paper's single-graph ensembles pair each GA structure with
        the same-parameter clustering and CF generators."""
        return [r for r in self.runs
                if r.spec.nedges == nedges and r.spec.alpha == alpha]

    def algorithms(self) -> list[str]:
        return sorted({r.algorithm for r in self.runs})

    def structures(self) -> list[tuple]:
        """Distinct (nedges, alpha) pairs present, GA scale only."""
        return sorted({(r.spec.nedges, r.spec.alpha) for r in self.runs
                       if r.spec.domain in ("ga", "clustering")})

    def timing_decomposition(self) -> "dict[str, float] | None":
        """Aggregate per-cell timings over executed cells, or None when
        nothing was executed (a fully cached build)."""
        executed = [r for r in self.runs + self.failures
                    if r.source == "run" and r.trace is not None
                    and "materialize_s" in r.trace.meta]
        if not executed:
            return None
        return {
            "cells": float(len(executed)),
            "materialize_s": sum(r.trace.meta["materialize_s"]
                                 for r in executed),
            "engine_s": sum(r.trace.meta["engine_s"] for r in executed),
            "store_s": sum(r.store_s or 0.0 for r in executed),
            "graph_reuses": float(sum(
                1 for r in executed
                if r.trace.meta.get("graph_source") in ("shm", "cache"))),
        }

    def summary(self) -> str:
        degraded = self.degraded_runs
        plane = ", graph plane on" if self.graph_plane else ""
        lines = [
            f"Behavior corpus [{self.profile.name}]: {self.n_runs} runs, "
            f"{len(self.failures)} failed, "
            f"{len(degraded)} degraded, "
            f"built in {self.build_seconds:.1f}s{plane}",
        ]
        if self.graph_plane:
            lines.append(f"  graph plane: {self.premat_graphs} graphs "
                         f"pre-materialized in {self.premat_seconds:.2f}s")
        if self.lease_expiries or self.workers_replaced:
            lines.append(f"  scheduler: {self.lease_expiries} lease "
                         f"expiries, {self.workers_replaced} workers "
                         f"replaced")
        if self.distributed:
            lines.append(f"  distributed: {self.nodes_seen} nodes seen, "
                         f"{self.nodes_lost} lost, "
                         f"{self.queue_requeues} requeues, "
                         f"{self.stale_epoch_rejections} stale-epoch "
                         f"stores rejected")
            if self.stale_done_markers or self.queue_leftovers:
                lines.append(f"  distributed anomalies: "
                             f"{self.stale_done_markers} stale done "
                             f"markers, {self.queue_leftovers} queue "
                             f"files left behind")
        timing = self.timing_decomposition()
        if timing is not None:
            lines.append(
                f"  timing: materialize {timing['materialize_s']:.2f}s + "
                f"engine {timing['engine_s']:.2f}s + "
                f"store {timing['store_s']:.2f}s over "
                f"{timing['cells']:.0f} executed cells "
                f"({timing['graph_reuses']:.0f} graph reuses)")
        for run in degraded:
            health = run.health
            lines.append(f"  DEGRADED {run.algorithm}@{run.spec.label}: "
                         f"{health.get('condition', '?')} at iteration "
                         f"{health.get('iteration', '?')}")
        for alg in self.algorithms():
            runs = self.by_algorithm(alg)
            iters = [r.metrics.n_iterations for r in runs]
            lines.append(f"  {alg:<10} {len(runs):>3} runs, "
                         f"iterations {min(iters)}..{max(iters)}")
        for fail in self.failures:
            lines.append(f"  FAILED {fail.algorithm}@{fail.spec.label}: "
                         f"{fail.failure}")
        if self.obs_dir is not None:
            lines.append(f"  telemetry: {self.obs_dir} "
                         f"(inspect with `repro stats {self.obs_dir}`)")
        return "\n".join(lines)


def run_cache_key(planned: PlannedRun, profile: Profile) -> str:
    """The store key identifying one corpus cell under one profile."""
    return f"{profile.name}-{planned.algorithm}-{planned.spec.cache_key()}"


def execute_planned_run(
    planned: PlannedRun,
    profile: Profile,
    store: "ResultStore | None" = None,
    options: "BuildOptions | None" = None,
) -> CorpusRun:
    """Execute one cell (or fetch it from the store), profile-configured,
    under *options* (default: every field's default).

    Unlike a build, it lets a fault outside the run itself (store I/O,
    metric computation) propagate.
    """
    return _run_cell(planned, profile, store, options or BuildOptions(),
                     isolate=False)


def _run_cell(planned: PlannedRun, profile: Profile,
              store: "ResultStore | None", options: BuildOptions, *,
              isolate: bool = True) -> CorpusRun:
    """Execute one cell under its causal span, then restore the ambient
    context. With ``isolate`` (every build path), *any* escaping
    exception — store I/O, metric computation, ... — becomes a recorded
    crash failure instead.

    The cell span id is derived from the build trace + the cell's
    cache key, so every attempt at this cell — retries, lease
    re-dispatches after a SIGKILL, resumed builds — lands on the same
    span node of the trace tree.
    """
    tel = get_telemetry()
    base_trace = tel.trace
    if base_trace is not None:
        tel.set_trace(
            base_trace.child("cell", run_cache_key(planned, profile)))
    try:
        return _execute_cell(planned, profile, store, options)
    except Exception as exc:  # last-resort isolation
        if not isolate:
            raise
        return CorpusRun(planned.algorithm, planned.spec, None, None,
                         failure=RunFailure.from_exception(exc))
    finally:
        tel.set_trace(base_trace)


def _execute_cell(planned: PlannedRun, profile: Profile,
                  store: "ResultStore | None",
                  options: BuildOptions) -> CorpusRun:
    """The body of :func:`_run_cell`: replay the store or run.

    This is the corpus runner's crash-isolation boundary: *any*
    exception escaping the run — not just the paper's
    :class:`~repro._util.errors.ResourceLimitError` — is classified
    into a :class:`~repro.experiments.failures.RunFailure` and recorded,
    so one faulting cell can never abort the other ~219.
    """
    engine_options: dict = {
        "memory_budget_bytes": profile.memory_budget_bytes}
    if options.health_policy is not None:
        engine_options["health_policy"] = options.health_policy
    params: dict = {}
    if planned.algorithm == "diameter":
        params["n_hashes"] = profile.ad_n_hashes
    key = run_cache_key(planned, profile)
    timeout_s = (profile.run_timeout_s if options.timeout_s is None
                 else options.timeout_s)
    retries = (profile.max_retries if options.retries is None
               else options.retries)

    tel = get_telemetry()
    # Only telemetry names the cell; a warm build with it off is
    # thousands of cells an interactive second, so it skips the label.
    cell = f"{planned.algorithm}@{planned.spec.label}" if tel.enabled else ""

    cached = (store.outcome(key, options.resume) if store is not None
              else None)
    if isinstance(cached, StoredRun):
        if tel.enabled:
            status = "degraded" if cached.degraded else "ok"
            tel.emit("cell_end", cell=cell, status=status, source="cache",
                     graph_source=cached.graph_source)
        return CorpusRun(planned.algorithm, planned.spec, cached,
                         cached.metrics, source="cache")
    if cached is not None:
        if tel.enabled:
            tel.emit("cell_end", cell=cell, status="failed",
                     source="cache", failure_kind=cached.kind)
        return CorpusRun(planned.algorithm, planned.spec, None, None,
                         failure=cached, source="cache")

    if tel.enabled:
        tel.set_context(cell=cell, attempt=1)
        # ``key`` lets the critical-path analyser join this cell to
        # its scheduler task ("run:<key>") for lease-latency splits.
        tel.emit("cell_start", key=key, timeout_s=timeout_s,
                 retries=retries)
    attempts = 0
    while True:
        attempts += 1
        if tel.enabled:
            tel.set_context(cell=cell, attempt=attempts)
        try:
            trace = run_computation(planned.algorithm, planned.spec,
                                    params=params, options=engine_options,
                                    timeout_s=timeout_s)
            # Every completed trace must satisfy the structural
            # invariants; a violation records a "numeric" failure for
            # the cell rather than poisoning the corpus.
            validate_trace(trace)
        except Exception as exc:  # crash-isolation boundary
            failure = RunFailure.from_exception(exc, attempts=attempts)
            if failure.retryable and attempts <= retries:
                # Full jitter decorrelates simultaneously failing
                # workers (deterministic doubling retried them in
                # lockstep); seeding from the cache key keeps one
                # cell's schedule reproducible.
                backoff = full_jitter_backoff(
                    profile.retry_backoff_s, attempts, key=key)
                if tel.enabled:
                    tel.emit("retry", failure_kind=failure.kind,
                             backoff_s=backoff)
                time.sleep(backoff)
                continue
            if store is not None:
                store.save_failure(key, failure)
            if tel.enabled:
                tel.emit("cell_end", status="failed", source="run",
                         failure_kind=failure.kind, attempts=attempts,
                         peak_rss_bytes=peak_rss_bytes())
                tel.set_context()
            return CorpusRun(planned.algorithm, planned.spec, None, None,
                             failure=failure)
        store_s = 0.0
        if store is not None:
            with tel.span("corpus_store",
                          algorithm=planned.algorithm) as store_span:
                store.save(key, trace)
            store_s = store_span.seconds
        if tel.enabled:
            status = "degraded" if trace.degraded else "ok"
            mat_s = float(trace.meta.get("materialize_s", 0.0))
            eng_s = float(trace.meta.get("engine_s", 0.0))
            tel.emit("cell_end", status=status, source="run",
                     attempts=attempts, materialize_s=mat_s,
                     engine_s=eng_s, store_s=store_s,
                     graph_source=trace.meta.get("graph_source"),
                     wall_s=float(trace.wall_time_s),
                     peak_rss_bytes=peak_rss_bytes())
            tel.set_context()
        return CorpusRun(planned.algorithm, planned.spec, trace,
                         compute_metrics(trace), store_s=store_s)


def _configure_worker_obs(options: BuildOptions) -> None:
    """Point this crew worker's telemetry at its own sink file.

    Workers are forked, so they inherit the parent's telemetry: its open
    handle on the parent's event log, which is swapped here for a fresh
    telemetry writing to ``<obs_dir>/sinks/events-<pid>.jsonl``, and its
    node and build-root causal context, which are carried over so that
    worker-side cell spans derive the same ids the parent would.
    """
    if options.obs_level == "off" or options.obs_dir is None:
        return
    parent = get_telemetry()
    tel = configure(options.obs_level, run_id=options.run_id,
                    events_path=worker_sink_path(options.obs_dir,
                                                 os.getpid()))
    tel.set_node(parent.node)
    tel.set_trace(parent.trace)


def progress_event(run: CorpusRun, done: int, total: int) -> dict:
    """Structured progress payload for one completed cell.

    This is the single source of truth for progress reporting: the
    event goes to the telemetry log verbatim and the human-readable
    line is :func:`format_progress` applied to it — the two can never
    drift apart (and a regression test holds them together).
    """
    event: dict[str, Any] = {
        "done": done,
        "total": total,
        "algorithm": run.algorithm,
        "label": run.spec.label,
        "source": run.source,
    }
    if run.ok:
        if run.degraded:
            event["status"] = "degraded"
            event["condition"] = run.health.get("condition", "?")
        else:
            event["status"] = "ok"
        if run.source == "run":
            event["wall_s"] = float(run.trace.wall_time_s)
            meta = run.trace.meta
            if "materialize_s" in meta:
                event["materialize_s"] = float(meta["materialize_s"])
                event["engine_s"] = float(meta["engine_s"])
                event["store_s"] = float(run.store_s or 0.0)
                event["graph_source"] = str(meta.get("graph_source", "?"))
    else:
        event["status"] = "failed"
        # "kind" is reserved for the event kind itself ("progress"),
        # so the failure taxonomy kind travels as "failure_kind".
        event["failure_kind"] = run.failure.kind
        event["attempts"] = run.failure.attempts
        event["message"] = str(run.failure.message)
    return event


def format_progress(event: dict) -> str:
    """Render a :func:`progress_event` payload as the human line."""
    head = (f"[{event['done']}/{event['total']}] "
            f"{event['algorithm']}@{event['label']}:")
    if event["status"] != "failed":
        status = event["status"]
        if status == "degraded":
            status = f"degraded health={event.get('condition', '?')}"
        line = f"{head} status={status} source={event['source']}"
        if event["source"] == "run":
            line += f" t={event['wall_s']:.2f}s"
            if "materialize_s" in event:
                # Timing decomposition: a slow cell is attributable to
                # graph materialization vs engine vs store at a glance.
                line += (f" mat={event['materialize_s']:.2f}s"
                         f" eng={event['engine_s']:.2f}s"
                         f" st={event['store_s']:.2f}s"
                         f" graph={event['graph_source']}")
        return line
    return (f"{head} status=failed kind={event['failure_kind']} "
            f"attempts={event['attempts']} source={event['source']}: "
            f"{event['message']}")


def _affinity_order(plan: "list[PlannedRun]") -> "list[PlannedRun]":
    """Graph-affinity scheduling: order the plan graph-major.

    Cells sharing a spec run consecutively, so a worker's attached
    segment / cache entry stays warm; the sort is stable, keeping the
    algorithm order within one graph deterministic.
    """
    return sorted(plan, key=lambda planned: planned.spec.cache_key())


def build_corpus(
    profile: "Profile | str | None" = None,
    *,
    store: "ResultStore | None" = None,
    use_cache: bool = True,
    progress: "Callable[[str], None] | None" = None,
    workers: int = 1,
    options: "BuildOptions | None" = None,
    stop_requested: "Callable[[], bool] | None" = None,
    obs: "str | None" = None,
    obs_dir: "str | Path | None" = None,
    distributed: "str | Path | None" = None,
) -> BehaviorCorpus:
    """Execute the full behavior-corpus plan (11 algorithms × 20 graphs).

    The build is resilient by construction: every cell runs inside a
    crash-isolation boundary, so a faulting (algorithm, graph) pair is
    recorded as a structured :class:`~repro.experiments.failures.RunFailure`
    while the remaining cells complete. Completed cells are saved to the
    store as they finish, which makes builds resumable — a rerun after
    a crash (or with ``BuildOptions(resume=True)`` after recorded
    transient failures) re-executes only the missing/failed cells.

    Parameters
    ----------
    profile:
        A :class:`Profile`, profile name, or None (``$REPRO_PROFILE``).
    store:
        Result cache; defaults to the standard on-disk store when
        ``use_cache`` is true.
    progress:
        Optional callback receiving one structured line per completed
        run (status, cache/run source, failure kind and attempts).
    workers:
        Number of worker processes. The 220 runs are independent, so
        they parallelize embarrassingly; each worker writes through the
        shared on-disk store (atomic writer-unique temp files, hashed
        per-key filenames). 1 (default) runs inline, as a plain call
        loop; more run under the supervised crew loop of
        :mod:`repro.experiments.scheduler`.
    options:
        How the cells execute, documented on
        :class:`~repro.experiments.config.BuildOptions` (default: every
        field's default). Its telemetry fields are the door's to fill
        in from ``obs`` / ``obs_dir``: an object that already sets them
        is refused.
    stop_requested:
        Optional callable polled between cells (the CLI's SIGINT hook).
        Once it returns True, no further cell is dispatched; in-flight
        crew cells finish and reach the store, and the corpus comes
        back with ``interrupted=True``.
    obs, obs_dir:
        Observability level (None resolves ``$REPRO_OBS``) and the
        directory for the event log and exports (default:
        ``$REPRO_OBS_DIR``, else ``obs/`` under the result store, else
        ``./.repro_obs``), resolved into the options' ``obs_level``,
        ``obs_dir`` and ``run_id``.
    distributed:
        Path to a shared work-queue directory (a filesystem every
        participating machine can reach). The build then runs as a
        *coordinator* over that queue (see
        :mod:`repro.experiments.distqueue`): it publishes one durable
        task per unsatisfied cell, runs an embedded node agent with
        ``workers`` local workers, and supervises any peer agents
        started with ``repro node <dir>`` — fencing dead or
        partitioned nodes by epoch and re-dispatching their leases.
        With no peers the build degrades gracefully to the single-node
        shape; with an unreachable queue root it falls back to the
        ordinary in-process path. Results flow through the shared
        ``store`` (created at the default location when None).
    """
    if options is None:
        options = BuildOptions()
    elif (options.obs_level, options.obs_dir, options.run_id) != (
            "off", None, None):
        raise ValidationError(
            "build_corpus resolves obs_level / obs_dir / run_id from its "
            "obs and obs_dir arguments; pass those instead")
    if not isinstance(profile, Profile):
        profile = get_profile(profile)
    if store is None and use_cache:
        store = ResultStore()
    matrix = ExperimentMatrix(profile)
    corpus = BehaviorCorpus(profile=profile)
    started = time.perf_counter()
    plan = _affinity_order(matrix.corpus_runs())

    obs_level = resolve_obs_level(obs)
    obs_path: "Path | None" = None
    if obs_level != "off":
        if obs_dir is not None:
            obs_path = Path(obs_dir)
        elif os.environ.get(OBS_DIR_ENV):
            obs_path = Path(os.environ[OBS_DIR_ENV])
        elif store is not None:
            obs_path = store.root / "obs"
        else:
            obs_path = Path(".repro_obs")
        # Deterministic: a resumed build of the same (profile, seed)
        # shares the run id — and the trace/span ids derived below —
        # so its events extend the original trace instead of forking
        # a new one (the re-link mechanism of repro.obs.tracing).
        corpus.run_id = derive_run_id(profile.name, profile.seed)
        corpus.obs_dir = str(obs_path)
        tel = configure(obs_level, run_id=corpus.run_id,
                        events_path=obs_path / EVENTS_FILENAME)
        tel.set_trace(TraceContext.for_build(profile.name, profile.seed))
        tel.emit("build_start", profile=profile.name, workers=workers,
                 planned=len(plan), level=obs_level, seed=profile.seed)
    tel = get_telemetry()
    options = replace(options, obs_level=obs_level, obs_dir=obs_path,
                      run_id=corpus.run_id)

    def stopped() -> bool:
        return stop_requested is not None and stop_requested()

    try:
        dist_queue = None
        if distributed is not None:
            from repro.experiments.distqueue import DistributedQueue

            dist_queue = DistributedQueue(distributed)
            try:
                dist_queue.ensure_layout()
            except OSError as exc:
                # The shared queue root is unreachable: degrade to the
                # ordinary single-node path instead of failing the
                # build over an infra fault.
                dist_queue = None
                tel.emit("distqueue", action="unreachable",
                         error=str(exc))
                if progress is not None:
                    progress(f"distributed queue {distributed} "
                             f"unreachable ({exc}); falling back to "
                             f"single-node build")
        if dist_queue is not None and store is None:
            # The queue protocol transports results through the shared
            # store; a distributed build cannot run cacheless.
            store = ResultStore()
        if dist_queue is None and workers <= 1:
            # In-process calls need no lease: a direct loop.
            for planned in plan:
                if stopped():
                    break
                corpus.collect(_run_cell(planned, profile, store, options),
                               len(plan), progress)
        else:
            # One crew loop (repro.experiments.scheduler.CrewLoop)
            # behind both: a Supervisor plans the corpus onto its board;
            # a Coordinator publishes it to the shared queue and drives
            # an embedded node agent, itself a crew loop.
            from repro.experiments.distqueue import Coordinator
            from repro.experiments.scheduler import Supervisor

            crewed: "dict[str, Any]" = dict(
                plan=plan, profile=profile, store=store, corpus=corpus,
                workers=workers, options=options, progress=progress,
                stop_requested=stop_requested)
            if dist_queue is not None:
                tel.set_node("coordinator")
                Coordinator(queue=dist_queue, **crewed).run()
            else:
                Supervisor(**crewed).run()
    finally:
        if store is not None:
            store.publish_index()
        corpus.interrupted = corpus.interrupted or stopped()
        corpus.build_seconds = time.perf_counter() - started
        if obs_path is not None:
            # Fold worker sinks into the main log and close it — also
            # on the SIGINT/exception paths, so a partial build still
            # leaves an inspectable log behind.
            tel = get_telemetry()
            merge_sinks(obs_path, tel.events)
            tel.emit("build_end", runs=len(corpus.runs),
                     failures=len(corpus.failures),
                     interrupted=corpus.interrupted,
                     seconds=corpus.build_seconds,
                     peak_rss_bytes=peak_rss_bytes())
            deactivate()
    return corpus
