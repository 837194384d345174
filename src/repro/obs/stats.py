"""Aggregation + rendering behind ``repro stats`` and ``repro tail``.

``repro stats`` reads the ``telemetry.json`` snapshot (and the
retained event log for the per-cell table) of an observability
directory and renders ASCII tables: phase time breakdown, failure
taxonomy counts, graph-plane hit rates, and p50/p95 iteration latency.
``repro tail`` formats the live event stream.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro._util.errors import ValidationError
from repro.experiments.reporting import format_table
from repro.obs.events import (
    EVENTS_FILENAME,
    TELEMETRY_FILENAME,
    read_all_events,
)
from repro.obs.export import load_telemetry

#: Default subdirectory (under a ResultStore root) where a corpus
#: build drops its observability artifacts.
OBS_SUBDIR = "obs"


def resolve_run_dir(path: "str | Path") -> Path:
    """Accept either an obs dir or its parent run/store directory."""

    root = Path(path)
    candidates = [root, root / OBS_SUBDIR]
    for candidate in candidates:
        if ((candidate / TELEMETRY_FILENAME).exists()
                or (candidate / EVENTS_FILENAME).exists()):
            return candidate
    raise ValidationError(
        f"no telemetry found under {root} (looked for "
        f"{TELEMETRY_FILENAME} / {EVENTS_FILENAME}, also in ./{OBS_SUBDIR})")


# -- snapshot accessors ------------------------------------------------

def _entries(snapshot: dict[str, Any], group: str,
             name: str) -> list[dict[str, Any]]:
    return snapshot.get(group, {}).get(name, [])


def _total(snapshot: dict[str, Any], name: str,
           **match: str) -> float:
    total = 0.0
    for entry in _entries(snapshot, "counters", name):
        labels = entry.get("labels", {})
        if all(labels.get(k) == v for k, v in match.items()):
            total += float(entry.get("value", 0.0))
    return total


def _by_label(snapshot: dict[str, Any], name: str,
              label: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for entry in _entries(snapshot, "counters", name):
        key = entry.get("labels", {}).get(label, "?")
        out[key] = out.get(key, 0.0) + float(entry.get("value", 0.0))
    return out


def _or(value: Any, default: str) -> Any:
    return default if value is None else value


def _fmt_s(value: float) -> str:
    return f"{value:.3f}"


def _fmt_ms(value: float) -> str:
    return f"{value * 1e3:.2f}"


def _fmt_bytes(value: float) -> str:
    units = ["B", "KiB", "MiB", "GiB"]
    for unit in units:
        if abs(value) < 1024 or unit == units[-1]:
            return (f"{value:.0f} {unit}" if unit == "B"
                    else f"{value:.1f} {unit}")
        value /= 1024
    return f"{value:.1f} GiB"


# -- stats rendering ---------------------------------------------------

def _node_rollup(events: list[dict[str, Any]]) -> dict[str, dict[str, int]]:
    """Per-node activity counts for distributed builds.

    Aggregated from the merged event stream (every node agent's sink
    carries its ``node`` stamp), so it works on a coordinator's obs
    directory after the per-node logs were folded in.
    """

    per_node: dict[str, dict[str, int]] = {}
    for event in events:
        node = event.get("node")
        if not node:
            continue
        row = per_node.setdefault(node, {
            "events": 0, "cells": 0, "claims": 0, "stale": 0})
        row["events"] += 1
        kind = event.get("kind")
        action = event.get("action")
        if kind == "cell_end":
            row["cells"] += 1
        elif kind == "node" and action == "claim":
            row["claims"] += 1
        elif kind == "node" and action == "stale-epoch-rejected":
            row["stale"] += 1
    return per_node


def _node_table(per_node: dict[str, dict[str, int]]) -> str:
    rows = [[node, row["events"], row["claims"], row["cells"],
             row["stale"]]
            for node, row in sorted(per_node.items())]
    return format_table(
        ["node", "events", "claims", "cells", "stale stores"],
        rows, title=f"Nodes ({len(per_node)})")


#: telemetry.json keys the text report's header shows, in order, and
#: the JSON payload's meta block.
_HEADER_KEYS = ("run", "level", "profile", "workers", "build_seconds",
                "interrupted")
_META_KEYS = _HEADER_KEYS + ("generated_at", "schema")


def stats_payload(run_dir: "str | Path", *,
                  node: "str | None" = None) -> dict[str, Any]:
    """Machine-readable ``repro stats --format json`` payload.

    Mirrors the human report's inputs — the ``telemetry.json`` metric
    snapshot plus event-derived rollups — without any table
    formatting, so CI and downstream services can consume telemetry
    without scraping ASCII.
    """

    obs_dir = resolve_run_dir(run_dir)
    payload = load_telemetry(obs_dir)
    events = read_all_events(obs_dir)
    if payload is None and not events:
        raise ValidationError(f"no telemetry data in {obs_dir}")
    nodes = _node_rollup(events)
    if node is not None:
        events = [e for e in events if e.get("node") == node]
        if not events:
            raise ValidationError(
                f"no events stamped node={node!r} in {obs_dir}")
    cells = []
    for event in events:
        if event.get("kind") != "cell_end":
            continue
        cells.append({
            "cell": event.get("cell"),
            "status": event.get("status"),
            "source": event.get("source"),
            "graph_source": event.get("graph_source"),
            "failure_kind": event.get("failure_kind"),
            "attempts": event.get("attempts", 1),
            "materialize_s": float(event.get("materialize_s", 0.0)),
            "engine_s": float(event.get("engine_s", 0.0)),
            "store_s": float(event.get("store_s", 0.0)),
            "node": event.get("node"),
        })
    cells.sort(key=lambda c: str(c["cell"]))
    meta = {key: payload[key] for key in _META_KEYS
            if payload and key in payload}
    return {
        "obs_dir": str(obs_dir),
        "node_filter": node,
        "meta": meta,
        "metrics": (payload or {}).get("metrics", {}),
        "nodes": nodes,
        "cells": cells,
        "n_events": len(events),
    }


def render_stats(run_dir: "str | Path", *,
                 node: "str | None" = None) -> str:
    """Full ``repro stats`` report for an observability directory: a
    formatter over :func:`stats_payload`.

    With *node*, the event-derived sections (per-cell table, node
    table) are restricted to events stamped with that node id; the
    registry-derived sections still cover the whole build (worker
    registries are merged without node labels).
    """

    payload = stats_payload(run_dir, node=node)
    snapshot, meta = payload["metrics"], payload["meta"]
    sections: list[str] = []

    header = [f"telemetry: {payload['obs_dir']}"]
    if node is not None:
        header.append(f"node filter: {node}")
    for key in _HEADER_KEYS:
        if key in meta:
            value = meta[key]
            if key == "build_seconds":
                value = _fmt_s(float(value)) + " s"
            header.append(f"{key}: {value}")
    sections.append("\n".join(header))
    if payload["nodes"] and node is None:
        sections.append(_node_table(payload["nodes"]))

    # Cell outcome summary.
    status_counts = _by_label(snapshot, "corpus_cells_total", "status")
    source_counts = _by_label(snapshot, "corpus_cells_total", "source")
    if status_counts:
        rows = [[status, int(count)]
                for status, count in sorted(status_counts.items())]
        rows.append(["(from cache)",
                     int(source_counts.get("cache", 0))])
        sections.append(format_table(
            ["status", "cells"], rows, title="Cell outcomes"))

    # Phase time breakdown: corpus level, then engine level.
    phase_totals = _by_label(snapshot, "corpus_cell_seconds_total", "phase")
    if phase_totals:
        grand = sum(phase_totals.values()) or 1.0
        rows = [[phase, _fmt_s(total), f"{100 * total / grand:.1f}%"]
                for phase, total in sorted(
                    phase_totals.items(), key=lambda kv: -kv[1])]
        sections.append(format_table(
            ["phase", "total s", "share"], rows,
            title="Cell phase time breakdown"))

    engine_rows = []
    for entry in _entries(snapshot, "histograms", "engine_phase_seconds"):
        labels = entry.get("labels", {})
        engine_rows.append([
            labels.get("engine", "?"), labels.get("phase", "?"),
            int(entry.get("count", 0)), _fmt_s(float(entry.get("sum", 0.0))),
            _fmt_ms(float(entry.get("p50", 0.0))),
            _fmt_ms(float(entry.get("p95", 0.0))),
        ])
    if engine_rows:
        engine_rows.sort(key=lambda r: (r[0], r[1]))
        merged: dict[tuple, list] = {}
        for row in engine_rows:
            key = (row[0], row[1])
            if key in merged:
                merged[key][2] += row[2]
                merged[key][3] = _fmt_s(
                    float(merged[key][3]) + float(row[3]))
            else:
                merged[key] = list(row)
        sections.append(format_table(
            ["engine", "phase", "samples", "total s", "p50 ms", "p95 ms"],
            merged.values(), title="Engine phase timing (sampled)"))

    # Failure taxonomy.
    failure_counts = _by_label(snapshot, "corpus_failures_total", "kind")
    retries = _total(snapshot, "corpus_retries_total")
    if failure_counts or retries:
        rows = [[kind, int(count)]
                for kind, count in sorted(failure_counts.items())]
        rows.append(["(retries)", int(retries)])
        sections.append(format_table(
            ["failure kind", "count"], rows, title="Failure taxonomy"))

    # Graph plane: resolution sources + hit rate, shm traffic.
    resolutions = _by_label(snapshot, "graph_resolutions_total", "source")
    if resolutions:
        total = sum(resolutions.values()) or 1.0
        rows = [[source, int(count), f"{100 * count / total:.1f}%"]
                for source, count in sorted(resolutions.items())]
        hits = resolutions.get("shm", 0.0) + resolutions.get("cache", 0.0)
        rows.append(["(hit rate)", int(hits),
                     f"{100 * hits / total:.1f}%"])
        sections.append(format_table(
            ["graph source", "count", "share"], rows,
            title="Graph resolution"))
    shm_bytes = _total(snapshot, "shm_published_bytes_total")
    shm_fail = _total(snapshot, "shm_attach_failures_total")
    extras = []
    if shm_bytes:
        extras.append(f"shm published: {_fmt_bytes(shm_bytes)}"
                      + (f", attach failures: {int(shm_fail)}"
                         if shm_fail else ""))
    trips = _by_label(snapshot, "health_trips_total", "condition")
    if trips:
        extras.append("health trips: " + ", ".join(
            f"{cond}={int(n)}" for cond, n in sorted(trips.items())))
    rss_entries = _entries(snapshot, "gauges", "peak_rss_bytes")
    if rss_entries:
        overall = max(float(e.get("value", 0.0)) for e in rss_entries)
        extras.append(f"peak RSS: {_fmt_bytes(overall)}")
        labeled = [e for e in rss_entries if e.get("labels")]
        if len(labeled) > 1:
            # One series per worker pid (plus node on distributed
            # builds) — the whole point of the labels is that workers
            # no longer overwrite each other in the merged rollup.
            parts = []
            for e in sorted(labeled,
                            key=lambda e: -float(e.get("value", 0.0))):
                labels = e.get("labels", {})
                who = labels.get("node") or f"pid {labels.get('pid', '?')}"
                parts.append(f"{who}={_fmt_bytes(float(e['value']))}")
            extras.append("peak RSS by worker: " + ", ".join(parts))
    if extras:
        sections.append("\n".join(extras))

    # Ensemble search: per-search walls, states scored, tile cache.
    search_rows = []
    for entry in _entries(snapshot, "histograms", "ensemble_search_seconds"):
        labels = entry.get("labels", {})
        search_rows.append([
            labels.get("metric", "?"), labels.get("strategy", "?"),
            labels.get("size", "?"),
            int(entry.get("count", 0)),
            _fmt_s(float(entry.get("sum", 0.0))),
        ])
    if search_rows:
        search_rows.sort(key=lambda r: (
            r[0], r[1], int(r[2]) if str(r[2]).isdigit() else 0))
        sections.append(format_table(
            ["metric", "strategy", "size", "searches", "total s"],
            search_rows, title="Ensemble search"))
    search_extras = []
    states = _total(snapshot, "ensemble_search_states_total")
    if states:
        search_extras.append(f"ensemble states scored: {int(states)}")
    cache = _by_label(snapshot, "ensemble_block_cache_total", "outcome")
    if cache:
        hits = cache.get("hit", 0.0)
        lookups = sum(cache.values()) or 1.0
        search_extras.append(
            f"distance-tile cache: {int(hits)}/{int(lookups)} hits "
            f"({100.0 * hits / lookups:.1f}%)")
    for entry in _entries(snapshot, "histograms",
                          "ensemble_greedy_reevaluations"):
        count = int(entry.get("count", 0)) or 1
        mean = float(entry.get("sum", 0.0)) / count
        search_extras.append(
            f"greedy gain re-evaluations: mean {mean:.1f}/step "
            f"over {count} steps")
        break
    if search_extras:
        sections.append("\n".join(search_extras))

    # Iteration latency percentiles per engine/algorithm.
    latency_rows = []
    for entry in _entries(snapshot, "histograms",
                          "engine_iteration_seconds"):
        labels = entry.get("labels", {})
        latency_rows.append([
            labels.get("engine", "?"), labels.get("algorithm", "?"),
            int(entry.get("count", 0)),
            _fmt_ms(float(entry.get("p50", 0.0))),
            _fmt_ms(float(entry.get("p95", 0.0))),
        ])
    if latency_rows:
        latency_rows.sort(key=lambda r: (r[0], r[1]))
        sections.append(format_table(
            ["engine", "algorithm", "iters", "p50 ms", "p95 ms"],
            latency_rows, title="Iteration latency (sampled)"))

    # Per-cell table from lifecycle events (a field the event lacks
    # is None in the payload).
    cell_rows = [[
        _or(cell["cell"], "?"), _or(cell["status"], "?"),
        _or(cell["source"], "?"), _or(cell["graph_source"], "-"),
        cell["attempts"], _fmt_s(cell["materialize_s"]),
        _fmt_s(cell["engine_s"]), _fmt_s(cell["store_s"]),
    ] for cell in payload["cells"]]
    if cell_rows:
        sections.append(format_table(
            ["cell", "status", "from", "graph", "tries",
             "mat s", "eng s", "store s"],
            cell_rows, title=f"Cells ({len(cell_rows)})"))

    return "\n\n".join(sections) + "\n"


# -- tail rendering ----------------------------------------------------

#: ``trace``/``span``/``parent`` are causal plumbing (``repro trace``
#: renders them); showing 12-hex ids on every tail line is noise.
_SKIP_FIELDS = {"ts", "kind", "pid", "run", "cell", "attempt", "node",
                "trace", "span", "parent"}


def format_event(event: dict[str, Any]) -> str:
    """One human-readable line for an event (used by ``repro tail``)."""

    import datetime

    ts = float(event.get("ts", 0.0))
    clock = datetime.datetime.fromtimestamp(ts).strftime("%H:%M:%S")
    kind = str(event.get("kind", "?"))
    if kind == "progress":
        # Single source of truth: the human progress line is a
        # formatter over the event payload (see experiments.corpus).
        from repro.experiments.corpus import format_progress

        try:
            return f"{clock} progress   {format_progress(event)}"
        except Exception:
            pass  # fall through to the generic rendering
    parts = [clock, f"{kind:<10}"]
    origin = event.get("node")
    if origin:
        parts.append(f"@{origin}")
    cell = event.get("cell")
    if cell:
        attempt = event.get("attempt")
        parts.append(f"{cell}" + (f"#{attempt}" if attempt else ""))
    for key in sorted(k for k in event if k not in _SKIP_FIELDS):
        value = event[key]
        if key in ("snapshot",):
            continue
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)

