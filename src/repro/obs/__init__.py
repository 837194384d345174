"""Unified telemetry plane: metrics registry, event log, exporters.

See docs/observability.md for the event schema, the span model, and
the merge semantics used to fold pool-worker telemetry back into the
parent registry.
"""

from repro.obs.events import (
    EVENTS_FILENAME,
    SINKS_DIRNAME,
    TELEMETRY_FILENAME,
    EventLog,
    merge_sinks,
    read_all_events,
    read_events,
    worker_sink_path,
    write_worker_metrics,
)
from repro.obs.export import (
    load_telemetry,
    write_telemetry_json,
)
from repro.obs.benchdiff import compare_artifacts, render_bench_compare
from repro.obs.critpath import critical_path, render_critical_path
from repro.obs.telemetry import (
    OBS_DIR_ENV,
    OBS_ENV,
    OBS_LEVELS,
    EngineObserver,
    Histogram,
    SpanHandle,
    Telemetry,
    configure,
    deactivate,
    engine_observer,
    get_telemetry,
    peak_rss_bytes,
    resolve_obs_level,
    validate_obs_level,
)
from repro.obs.tracing import (
    TraceContext,
    build_span_tree,
    derive_id,
    derive_run_id,
    render_trace,
)

__all__ = [
    "EVENTS_FILENAME",
    "OBS_DIR_ENV",
    "OBS_ENV",
    "OBS_LEVELS",
    "SINKS_DIRNAME",
    "TELEMETRY_FILENAME",
    "EngineObserver",
    "EventLog",
    "Histogram",
    "SpanHandle",
    "Telemetry",
    "TraceContext",
    "build_span_tree",
    "compare_artifacts",
    "configure",
    "critical_path",
    "deactivate",
    "derive_id",
    "derive_run_id",
    "engine_observer",
    "get_telemetry",
    "load_telemetry",
    "merge_sinks",
    "peak_rss_bytes",
    "read_all_events",
    "read_events",
    "render_bench_compare",
    "render_critical_path",
    "render_trace",
    "resolve_obs_level",
    "validate_obs_level",
    "worker_sink_path",
    "write_worker_metrics",
    "write_telemetry_json",
]
