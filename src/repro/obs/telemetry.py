"""Process-wide telemetry registry: counters, gauges, histograms, spans.

This is the zero-dependency core of the observability plane.  A single
:class:`Telemetry` instance per process aggregates labeled metric
series and (optionally) appends structured events to a JSONL
:class:`~repro.obs.events.EventLog`.  Pool workers run their *own*
instance writing to a per-worker sink file; the parent merges worker
snapshots back at the end of a corpus build (see
``repro.obs.events.merge_sinks``).

Two observability levels gate the cost:

``off``
    The default.  ``get_telemetry().enabled`` is ``False`` and
    ``engine_observer()`` returns ``None`` — instrumented code paths
    reduce to a single attribute check / ``None`` test.
``full``
    Metrics, every engine iteration timed, and spans and subsystem
    actions emitted as events.

Crucially, no instrumentation ever touches ``Counters``, frontiers, or
any value that feeds :meth:`BehaviorCorpus.vectors`.  Under the
``unit`` work model the behavior vectors are therefore bit-identical
at both levels — telemetry observes the computation, it never
participates in it (DESIGN §12).
"""

from __future__ import annotations

import os
import resource
import sys
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

from repro._util.errors import ValidationError
from repro.obs.events import EventLog
from repro.obs.tracing import TraceContext

#: Recognised observability levels.
OBS_LEVELS = ("off", "full")

#: Environment variable consulted when no explicit level is given.
OBS_ENV = "REPRO_OBS"
#: Environment variable for the default event/export directory.
OBS_DIR_ENV = "REPRO_OBS_DIR"

#: Bounded per-series reservoir used for p50/p95 estimates.
RESERVOIR_SIZE = 2048
#: Samples retained per histogram when snapshotting for cross-process
#: merge / export (keeps worker sink lines and telemetry.json small).
SNAPSHOT_SAMPLES = 512


def validate_obs_level(level: str) -> str:
    """Return *level* or raise :class:`ValidationError`."""

    if level not in OBS_LEVELS:
        raise ValidationError(
            f"unknown obs level {level!r}; expected one of {OBS_LEVELS}")
    return level


def resolve_obs_level(level: "str | None") -> str:
    """Resolve an explicit level or fall back to ``$REPRO_OBS``/off."""

    if level is not None:
        return validate_obs_level(level)
    env = os.environ.get(OBS_ENV, "").strip().lower()
    return env if env in OBS_LEVELS else "off"


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes."""

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Histogram:
    """Streaming summary plus a bounded reservoir for percentiles.

    ``count``/``sum``/``min``/``max`` are exact; percentiles are
    computed over the most recent :data:`RESERVOIR_SIZE` observations,
    which is representative for the steady-state distributions we care
    about (iteration and phase latencies).
    """

    __slots__ = ("count", "sum", "min", "max", "_sample")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._sample: deque[float] = deque(maxlen=RESERVOIR_SIZE)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._sample.append(value)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained sample."""

        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        rank = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[rank]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        sample = list(self._sample)
        if len(sample) > SNAPSHOT_SAMPLES:
            step = len(sample) / SNAPSHOT_SAMPLES
            sample = [sample[int(i * step)]
                      for i in range(SNAPSHOT_SAMPLES)]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "sample": sample,
        }

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        count = int(snap.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.sum += float(snap.get("sum", 0.0))
        self.min = min(self.min, float(snap.get("min", self.min)))
        self.max = max(self.max, float(snap.get("max", self.max)))
        for value in snap.get("sample", ()):
            self._sample.append(float(value))


class SpanHandle:
    """Mutable handle for an in-flight :meth:`Telemetry.span` region."""

    __slots__ = ("name", "labels", "seconds")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.seconds = 0.0

    def set(self, **labels: Any) -> None:
        """Attach labels discovered while the span is open."""
        self.labels.update(labels)


class Telemetry:
    """Registry of labeled counters/gauges/histograms + event emitter.

    Metric series are addressed by ``(name, labels)``; label values are
    stringified.  Merge semantics (used for worker → parent folding):
    counters **sum**, gauges **max** (they record peaks, e.g.
    ``peak_rss_bytes``), histograms merge their exact aggregates and
    concatenate bounded samples.
    """

    def __init__(self, level: str = "off",
                 events: "EventLog | None" = None,
                 run_id: "str | None" = None,
                 node: "str | None" = None) -> None:
        self.level = validate_obs_level(level)
        self.events = events
        self.run_id = run_id
        self.node = node
        self.cell: "str | None" = None
        self.attempt: "int | None" = None
        self.trace: "TraceContext | None" = None
        self._counters: dict[str, dict[tuple, float]] = {}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._histograms: dict[str, dict[tuple, Histogram]] = {}

    # -- level helpers ------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.level != "off"

    # -- context ------------------------------------------------------
    def set_context(self, *, cell: "str | None" = None,
                    attempt: "int | None" = None) -> None:
        self.cell = cell
        self.attempt = attempt

    def set_node(self, node: "str | None") -> None:
        """Stamp subsequent events with the distributed-build node
        identity. Unlike cell/attempt, the node never changes for the
        life of the process, so it is set once rather than per-cell."""
        self.node = node

    def set_trace(self, trace: "TraceContext | None") -> None:
        """Install the ambient causal context stamped onto events.

        Span ids are deterministic (see :mod:`repro.obs.tracing`), so
        setting the same cell context on a retried or re-dispatched
        attempt re-links its events to the original span node.
        """
        self.trace = trace

    def child(self, *key: Any) -> "TraceContext | None":
        """The deterministic child span of the ambient context keyed by
        *key* (``None`` when the build runs untraced)."""
        return None if self.trace is None else self.trace.child(*key)

    def record_peak_rss(self) -> None:
        """Record this process's peak RSS under worker/node labels.

        Pool workers and node agents share gauge *names* when their
        registries merge back into the parent; labeling by pid (and
        node, when set) keeps each worker's peak as its own series
        instead of all of them collapsing into one process-wide max.
        """
        if not self.enabled:
            return
        labels: dict[str, Any] = {"pid": os.getpid()}
        if self.node is not None:
            labels["node"] = self.node
        self.gauge_max("peak_rss_bytes", peak_rss_bytes(), **labels)

    # -- metric primitives --------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if not self.enabled:
            return
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def gauge_max(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        series = self._gauges.setdefault(name, {})
        key = _label_key(labels)
        if value > series.get(key, float("-inf")):
            series[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = Histogram()
        hist.observe(value)

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, **labels: Any) -> "Iterator[SpanHandle]":
        """Time a region into the ``<name>_seconds`` histogram.

        Yields a :class:`SpanHandle`; the caller can attach labels that
        are only known mid-region via :meth:`SpanHandle.set` and read
        the measured duration from ``handle.seconds`` afterwards.  The
        region is *always* timed (callers often need the duration even
        with telemetry off); recording and the ``span`` event only
        happen when enabled.
        """

        handle = SpanHandle(name, dict(labels))
        started = time.perf_counter()
        try:
            yield handle
        finally:
            handle.seconds = time.perf_counter() - started
            if self.enabled:
                self.observe(f"{name}_seconds", handle.seconds,
                             **handle.labels)
                # Phase spans are children of the ambient span (the
                # cell), keyed by name + attempt so a retry's phases
                # get their own deterministic node.
                self.emit("span",
                          _trace_ctx=self.child(name, self.attempt or 0),
                          name=name, seconds=handle.seconds,
                          **handle.labels)

    # -- events --------------------------------------------------------
    def emit(self, kind: str,
             _trace_ctx: "TraceContext | None" = None,
             **fields: Any) -> None:
        """Append a structured event; no-op when off or no sink.

        The event is stamped with the causal context installed via
        :meth:`set_trace`; *_trace_ctx* overrides it for one event
        (used by the scheduler/agents to attribute task and node
        events to their own spans without mutating ambient state).
        """

        if not self.enabled or self.events is None:
            return
        event = {"ts": time.time(), "kind": kind, "pid": os.getpid()}
        if self.run_id is not None:
            event["run"] = self.run_id
        if self.node is not None:
            event["node"] = self.node
        if self.cell is not None:
            event["cell"] = self.cell
        if self.attempt is not None:
            event["attempt"] = self.attempt
        ctx = _trace_ctx if _trace_ctx is not None else self.trace
        if ctx is not None:
            event.update(ctx.to_dict())
        event.update(fields)
        self.events.append(event)

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable dump of every metric series."""

        def dump(series: dict[str, dict[tuple, float]]) -> dict:
            return {
                name: [{"labels": dict(key), "value": value}
                       for key, value in sorted(entries.items())]
                for name, entries in sorted(series.items())
            }

        return {
            "counters": dump(self._counters),
            "gauges": dump(self._gauges),
            "histograms": {
                name: [{"labels": dict(key), **hist.snapshot()}
                       for key, hist in sorted(entries.items())]
                for name, entries in sorted(self._histograms.items())
            },
        }

    def drain(self) -> dict[str, Any]:
        """Snapshot every metric series, then reset them all.

        Pool workers call this after each cell so the cell's metric
        delta can ride back to the parent on the result itself — a
        few KB per cell instead of rewriting an ever-growing
        cumulative snapshot to disk. The event log and context are
        untouched; only counters/gauges/histograms restart at zero.
        Because :meth:`merge_snapshot` is associative, merging the
        per-cell deltas in any order equals one cumulative snapshot.
        """
        snap = self.snapshot()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        return snap

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold another process's :meth:`snapshot` into this registry."""

        for name, entries in snap.get("counters", {}).items():
            for entry in entries:
                self.inc(name, float(entry.get("value", 0.0)),
                         **entry.get("labels", {}))
        for name, entries in snap.get("gauges", {}).items():
            for entry in entries:
                self.gauge_max(name, float(entry.get("value", 0.0)),
                               **entry.get("labels", {}))
        for name, entries in snap.get("histograms", {}).items():
            series = self._histograms.setdefault(name, {})
            for entry in entries:
                key = _label_key(entry.get("labels", {}))
                hist = series.get(key)
                if hist is None:
                    hist = series[key] = Histogram()
                hist.merge_snapshot(entry)

    # -- iteration helpers --------------------------------------------
    def histogram(self, name: str, **labels: Any) -> "Histogram | None":
        series = self._histograms.get(name)
        if series is None:
            return None
        return series.get(_label_key(labels))

    def counter_value(self, name: str, **labels: Any) -> float:
        series = self._counters.get(name, {})
        return series.get(_label_key(labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all of its label series."""
        return float(sum(self._counters.get(name, {}).values()))

    def close(self) -> None:
        if self.events is not None:
            self.events.close()


class EngineObserver:
    """Per-run engine hook: phase/iteration timing + totals.

    Where one exists the loop times every step's phases with
    ``perf_counter`` and calls :meth:`iteration` with the per-iteration
    ``Counters`` deltas: totals are dict increments, wall times go to
    histograms.  Nothing here feeds back into the computation.
    """

    __slots__ = ("tel", "engine", "algorithm")

    def __init__(self, tel: Telemetry, engine: str, algorithm: str) -> None:
        self.tel = tel
        self.engine = engine
        self.algorithm = algorithm

    def iteration(self, *, iteration: int, active: int, updates: int,
                  edge_reads: int, messages: int,
                  seconds: "float | None" = None,
                  phases: "dict[str, float] | None" = None) -> None:
        tel = self.tel
        labels = {"engine": self.engine, "algorithm": self.algorithm}
        tel.inc("engine_iterations_total", 1, **labels)
        tel.inc("engine_active_total", active, **labels)
        tel.inc("engine_updates_total", updates, **labels)
        tel.inc("engine_edge_reads_total", edge_reads, **labels)
        tel.inc("engine_messages_total", messages, **labels)
        if seconds is not None:
            tel.observe("engine_iteration_seconds", seconds, **labels)
        if phases:
            for phase, dt in phases.items():
                tel.observe("engine_phase_seconds", dt,
                            phase=phase, **labels)

    def direction(self, *, mode: str, active_fraction: float,
                  switched: bool) -> None:
        """Record one iteration's traversal direction decision.

        ``mode`` is ``"push"`` or ``"pull"``; ``switched`` marks
        iterations whose mode differs from the previous one, and those
        observe the active fraction that triggered the switch.
        Observational only — the decision itself is a pure function of
        (active_fraction, threshold), never of telemetry state.
        """
        tel = self.tel
        labels = {"engine": self.engine, "algorithm": self.algorithm}
        tel.inc("engine_direction_iterations_total", 1, mode=mode, **labels)
        if switched:
            tel.observe("engine_direction_switch_active_fraction",
                        active_fraction, to=mode, **labels)


# -- process-global instance ------------------------------------------

_TELEMETRY: "Telemetry | None" = None


def get_telemetry() -> Telemetry:
    """The process-wide registry (off-level unless configured)."""

    global _TELEMETRY
    if _TELEMETRY is None:
        _TELEMETRY = Telemetry(level=resolve_obs_level(None))
    return _TELEMETRY


def configure(level: str, *, events_path: "str | None" = None,
              run_id: "str | None" = None) -> Telemetry:
    """Install a fresh process-global registry and return it."""

    global _TELEMETRY
    if _TELEMETRY is not None:
        _TELEMETRY.close()
    events = None
    if events_path is not None and level != "off":
        events = EventLog(events_path)
    _TELEMETRY = Telemetry(level=level, events=events, run_id=run_id)
    return _TELEMETRY


def deactivate() -> None:
    """Close any sink and reset the global registry to level off."""

    global _TELEMETRY
    if _TELEMETRY is not None:
        _TELEMETRY.close()
    _TELEMETRY = Telemetry(level="off")


def engine_observer(engine: str, algorithm: str) -> "EngineObserver | None":
    """Observer for an engine run, or ``None`` when telemetry is off."""

    tel = get_telemetry()
    if not tel.enabled:
        return None
    return EngineObserver(tel, engine, algorithm)
