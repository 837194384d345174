"""Process-wide telemetry: spans and the event log, nothing else.

The event log is the one record of what a build did. A single
:class:`Telemetry` instance per process stamps context (run, node,
cell, attempt, causal span) onto structured events and appends them to
a JSONL :class:`~repro.obs.events.EventLog`. Pool workers and node
agents write their *own* sinks, which the parent folds into the main
log at the end of a corpus build (``repro.obs.events.merge_sinks``);
``repro stats`` is a fold over that log (:mod:`repro.obs.stats`).
There is no metric registry: a count, a total or a peak is a field of
the event that carries the fact.

Two observability levels gate the cost:

``off``
    The default.  ``get_telemetry().enabled`` is ``False`` and
    ``engine_observer()`` returns ``None`` — instrumented code paths
    reduce to a single attribute check / ``None`` test.
``full``
    Every engine iteration timed into a per-run summary that rides on
    the run's ``engine_run`` span event; spans and subsystem actions
    emitted as events.

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
from contextlib import contextmanager
from typing import Any, Iterator

from repro._util.errors import ValidationError
from repro.obs.events import EventLog
from repro.obs.tracing import TraceContext

#: Recognised observability levels.
OBS_LEVELS = ("off", "full")

#: Environment variable consulted when no explicit level is given.
OBS_ENV = "REPRO_OBS"
#: Environment variable for the default event directory.
OBS_DIR_ENV = "REPRO_OBS_DIR"

#: Iteration wall times one ``engine_run`` event carries at most (an
#: evenly strided subsample of the run's), so an event's size is
#: bounded whatever the run's length.
ITERATION_SAMPLES = 32


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


class SpanHandle:
    """Mutable handle for an in-flight :meth:`Telemetry.span` region."""

    __slots__ = ("name", "labels", "seconds")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.seconds = 0.0

    def set(self, **labels: Any) -> None:
        """Attach fields discovered while the span is open; they ride
        on the span's closing event."""
        self.labels.update(labels)


class Telemetry:
    """Event emitter with the ambient context stamped on every event."""

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
        self._open: list[SpanHandle] = []

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

    # -- spans ---------------------------------------------------------
    @property
    def current_span(self) -> "SpanHandle | None":
        """The innermost open span, where code running inside it puts
        facts of its own (the engine loop's run summary)."""
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str, **labels: Any) -> "Iterator[SpanHandle]":
        """Time a region and, when enabled, emit one ``span`` event.

        Yields a :class:`SpanHandle`; the caller can attach fields that
        are only known mid-region via :meth:`SpanHandle.set` and read
        the measured duration from ``handle.seconds`` afterwards.  The
        region is *always* timed (callers often need the duration even
        with telemetry off); the event is written only when enabled,
        also when the region raises.
        """

        handle = SpanHandle(name, dict(labels))
        self._open.append(handle)
        started = time.perf_counter()
        try:
            yield handle
        finally:
            handle.seconds = time.perf_counter() - started
            self._open.pop()
            if self.enabled:
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

    def close(self) -> None:
        if self.events is not None:
            self.events.close()


class EngineObserver:
    """Per-run engine hook: phase/iteration timing and directions.

    The loop times every step's phases with ``perf_counter`` and calls
    :meth:`iteration`; :meth:`finish` puts the run's summary on the
    enclosing span (``engine_run`` under ``run_computation``): per-phase
    second totals, a bounded sample of iteration seconds, and the
    synchronous engine's pull/push counts and switch points. One event
    per run, whatever its length. Nothing here feeds back into the
    computation.
    """

    __slots__ = ("tel", "iteration_s", "phase_s", "pull", "push",
                 "switches")

    def __init__(self, tel: Telemetry) -> None:
        self.tel = tel
        self.iteration_s: list[float] = []
        self.phase_s: dict[str, float] = {}
        self.pull = 0
        self.push = 0
        self.switches: list[list] = []

    def iteration(self, seconds: float,
                  phases: "dict[str, float] | None" = None) -> None:
        self.iteration_s.append(seconds)
        for phase, dt in (phases or {}).items():
            self.phase_s[phase] = self.phase_s.get(phase, 0.0) + dt

    def direction(self, *, mode: str, active_fraction: float,
                  switched: bool) -> None:
        """Record one iteration's traversal direction decision.

        ``mode`` is ``"push"`` or ``"pull"``; ``switched`` marks
        iterations whose mode differs from the previous one, and those
        keep the active fraction that triggered the switch.
        Observational only — the decision itself is a pure function of
        (active_fraction, threshold), never of telemetry state.
        """
        if mode == "pull":
            self.pull += 1
        else:
            self.push += 1
        if switched and len(self.switches) < ITERATION_SAMPLES:
            self.switches.append([mode, active_fraction])

    def summary(self) -> dict[str, Any]:
        """The run's facts, as fields of one event."""
        times = self.iteration_s
        step = max(1, -(-len(times) // ITERATION_SAMPLES))
        facts: dict[str, Any] = {
            "iterations": len(times),
            "iteration_s": times[::step],
            "phase_s": self.phase_s,
        }
        if self.pull or self.push:
            facts.update(pull_iterations=self.pull,
                         push_iterations=self.push,
                         switches=self.switches)
        return facts

    def finish(self) -> None:
        span = self.tel.current_span
        if span is not None:
            span.set(**self.summary())


# -- process-global instance ------------------------------------------

_TELEMETRY: "Telemetry | None" = None


def get_telemetry() -> Telemetry:
    """The process-wide telemetry (off-level unless configured)."""

    global _TELEMETRY
    if _TELEMETRY is None:
        _TELEMETRY = Telemetry(level=resolve_obs_level(None))
    return _TELEMETRY


def configure(level: str, *, events_path: "str | None" = None,
              run_id: "str | None" = None) -> Telemetry:
    """Install a fresh process-global telemetry and return it."""

    global _TELEMETRY
    if _TELEMETRY is not None:
        _TELEMETRY.close()
    events = None
    if events_path is not None and level != "off":
        events = EventLog(events_path)
    _TELEMETRY = Telemetry(level=level, events=events, run_id=run_id)
    return _TELEMETRY


def deactivate() -> None:
    """Close any sink and reset the global telemetry to level off."""

    global _TELEMETRY
    if _TELEMETRY is not None:
        _TELEMETRY.close()
    _TELEMETRY = Telemetry(level="off")


def engine_observer() -> "EngineObserver | None":
    """Observer for an engine run, or ``None`` when telemetry is off."""

    tel = get_telemetry()
    if not tel.enabled:
        return None
    return EngineObserver(tel)
