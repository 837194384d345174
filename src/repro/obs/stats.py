"""Aggregation + rendering behind ``repro stats`` and ``repro tail``.

``repro stats`` is a fold over the event log of an observability
directory — every retained generation, oldest first — and nothing
else: cell outcomes and phase seconds from ``cell_end``, retries from
``retry``, graph resolutions, engine timing and ensemble work from
``span`` events, shared-memory traffic from ``shm``, watchdog trips
from ``health``, per-process peak RSS from the ``peak_rss_bytes`` on
``cell_end`` / ``build_end`` / a node's ``stop`` / ``run_end``, and
the header from ``build_start`` / ``build_end``.  Events a SIGKILLed
process flushed before it died are counted like any other.
``repro tail`` formats the live event stream.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Any

from repro._util.errors import ValidationError
from repro.experiments.reporting import format_table
from repro.obs.events import EVENTS_FILENAME, log_files, read_all_events

#: Default subdirectory (under a ResultStore root) where a corpus
#: build drops its observability artifacts.
OBS_SUBDIR = "obs"

#: Event kinds that open a corpus build or a one-shot CLI command.
_START_KINDS = ("build_start", "run_start")


def resolve_run_dir(path: "str | Path") -> Path:
    """Accept either an obs dir or its parent run/store directory."""

    root = Path(path)
    for candidate in (root, root / OBS_SUBDIR):
        if log_files(candidate):
            return candidate
    raise ValidationError(
        f"no telemetry found under {root} (looked for "
        f"{EVENTS_FILENAME}, also in ./{OBS_SUBDIR})")


def _percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


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


# -- the fold ----------------------------------------------------------

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
            "events": 0, "cells": 0, "claims": 0, "stale": 0,
            "shm_publishes": 0})
        row["events"] += 1
        kind = event.get("kind")
        action = event.get("action")
        if kind == "cell_end":
            row["cells"] += 1
        elif kind == "node" and action == "claim":
            row["claims"] += 1
        elif kind == "node" and action == "stale-epoch-rejected":
            row["stale"] += 1
        elif kind == "shm" and action == "publish":
            row["shm_publishes"] += 1
    return per_node


def _node_table(per_node: dict[str, dict[str, int]]) -> str:
    rows = [[node, row["events"], row["claims"], row["cells"],
             row["stale"]]
            for node, row in sorted(per_node.items())]
    return format_table(
        ["node", "events", "claims", "cells", "stale stores"],
        rows, title=f"Nodes ({len(per_node)})")


#: Header fields, in order: the last build's (or command's) start and
#: end events.
_HEADER_KEYS = ("run", "level", "profile", "workers", "build_seconds",
                "interrupted")


def _meta(events: list[dict[str, Any]]) -> dict[str, Any]:
    meta: dict[str, Any] = {}
    for event in events:
        kind = event.get("kind")
        if kind in _START_KINDS:
            meta = {"run": event.get("run"), "level": event.get("level"),
                    "profile": event.get("profile"),
                    "workers": event.get("workers")}
        elif kind == "build_end":
            meta.update(build_seconds=event.get("seconds"),
                        interrupted=event.get("interrupted"))
    return {key: meta[key] for key in _HEADER_KEYS
            if meta.get(key) is not None}


def _cell_row(event: dict[str, Any]) -> dict[str, Any]:
    return {
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
    }


def _fold(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Every section of the report, in one pass over *events*."""

    outcomes: Counter = Counter()
    from_cache = 0
    phases: dict[str, float] = {}
    failures: Counter = Counter()
    retries = 0
    sources: Counter = Counter()
    shm = {"publishes": 0, "bytes": 0, "attach_failures": 0}
    trips: Counter = Counter()
    rss: dict[tuple, int] = {}
    engine_phases: dict[tuple, list] = {}
    latency: dict[tuple, list] = {}
    searches: dict[tuple, list] = {}
    search = {"states": 0, "cache_hits": 0, "cache_misses": 0,
              "greedy_steps": 0, "reevaluations": 0}
    cells = []
    for event in events:
        kind = event.get("kind")
        peak = event.get("peak_rss_bytes")
        if peak is not None:
            who = (event.get("node"), event.get("pid"))
            rss[who] = max(rss.get(who, 0), int(peak))
        if kind == "cell_end":
            cells.append(_cell_row(event))
            outcomes[event.get("status", "?")] += 1
            if event.get("source") == "cache":
                from_cache += 1
            elif event.get("status") == "failed":
                failures[event.get("failure_kind", "?")] += 1
            elif "engine_s" in event:
                for phase in ("materialize", "engine", "store"):
                    phases[phase] = (phases.get(phase, 0.0)
                                     + float(event.get(f"{phase}_s", 0.0)))
        elif kind == "retry":
            retries += 1
        elif kind == "shm":
            if event.get("action") == "publish":
                shm["publishes"] += 1
                shm["bytes"] += int(event.get("bytes", 0))
            elif event.get("action") == "attach-failed":
                shm["attach_failures"] += 1
        elif kind == "health":
            trips[event.get("condition", "?")] += 1
        elif kind == "span":
            name = event.get("name")
            if name == "materialize" and "source" in event:
                sources[event["source"]] += 1
            elif name == "engine_run" and event.get("iterations"):
                n = int(event["iterations"])
                engine = event.get("engine", "?")
                for phase, secs in event.get("phase_s", {}).items():
                    row = engine_phases.setdefault((engine, phase),
                                                   [0, 0.0, []])
                    row[0] += n
                    row[1] += float(secs)
                    row[2].append(float(secs) / n)
                row = latency.setdefault(
                    (engine, event.get("algorithm", "?")), [0, []])
                row[0] += n
                row[1].extend(event.get("iteration_s", ()))
            elif name == "ensemble_search":
                key = (event.get("metric", "?"),
                       event.get("strategy", "?"), event.get("size", "?"))
                row = searches.setdefault(key, [0, 0.0])
                row[0] += 1
                row[1] += float(event.get("seconds", 0.0))
                for field in ("states", "cache_hits", "cache_misses",
                              "reevaluations"):
                    search[field] += int(event.get(field, 0))
                if "reevaluations" in event:
                    search["greedy_steps"] += int(event.get("size", 0))
    cells.sort(key=lambda c: str(c["cell"]))
    return {
        "outcomes": dict(outcomes),
        "from_cache": from_cache,
        "phases": phases,
        "engine_phases": [
            {"engine": engine, "phase": phase, "samples": n,
             "total_s": total, "p50_s": _percentile(means, 0.50),
             "p95_s": _percentile(means, 0.95)}
            for (engine, phase), (n, total, means)
            in sorted(engine_phases.items())],
        "failures": dict(failures),
        "retries": retries,
        "graph_sources": dict(sources),
        "shm": shm,
        "health_trips": dict(trips),
        "peak_rss": [
            {"node": who[0], "pid": who[1], "bytes": peak}
            for who, peak in sorted(rss.items(),
                                    key=lambda kv: (-kv[1], str(kv[0])))],
        "searches": [
            {"metric": metric, "strategy": strategy, "size": size,
             "searches": n, "total_s": total}
            for (metric, strategy, size), (n, total) in sorted(
                searches.items(), key=lambda kv: (
                    kv[0][0], kv[0][1],
                    kv[0][2] if isinstance(kv[0][2], int) else 0))],
        "search": search,
        "iterations": [
            {"engine": engine, "algorithm": algorithm, "iterations": n,
             "p50_s": _percentile(sample, 0.50),
             "p95_s": _percentile(sample, 0.95)}
            for (engine, algorithm), (n, sample)
            in sorted(latency.items())],
        "cells": cells,
    }


def stats_payload(run_dir: "str | Path", *,
                  node: "str | None" = None) -> dict[str, Any]:
    """Machine-readable ``repro stats --format json`` payload.

    A fold over the retained event log, without any table formatting,
    so CI and downstream services can consume telemetry without
    scraping ASCII.  ``complete`` is false when the oldest retained
    event does not open a build (or command): rotation dropped the
    events before it, so every count is a lower bound.  With *node*,
    every section but the header and the node table covers only the
    events stamped with that node id.
    """

    obs_dir = resolve_run_dir(run_dir)
    events = read_all_events(obs_dir)
    if not events:
        raise ValidationError(f"no telemetry data in {obs_dir}")
    payload: dict[str, Any] = {
        "obs_dir": str(obs_dir),
        "node_filter": node,
        "complete": events[0].get("kind") in _START_KINDS,
        "meta": _meta(events),
        "nodes": _node_rollup(events),
    }
    if node is not None:
        events = [e for e in events if e.get("node") == node]
        if not events:
            raise ValidationError(
                f"no events stamped node={node!r} in {obs_dir}")
    payload.update(_fold(events))
    payload["n_events"] = len(events)
    return payload


# -- stats rendering ---------------------------------------------------

def render_stats(run_dir: "str | Path", *,
                 node: "str | None" = None) -> str:
    """Full ``repro stats`` report for an observability directory: a
    formatter over :func:`stats_payload`."""

    payload = stats_payload(run_dir, node=node)
    meta = payload["meta"]
    sections: list[str] = []

    header = [f"telemetry: {payload['obs_dir']}"]
    if node is not None:
        header.append(f"node filter: {node}")
    if not payload["complete"]:
        header.append("log: partial — the oldest retained event opens no "
                      "build; rotation dropped the events before it, so "
                      "every count below is a lower bound")
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
    if payload["outcomes"]:
        rows = [[status, count]
                for status, count in sorted(payload["outcomes"].items())]
        rows.append(["(from cache)", payload["from_cache"]])
        sections.append(format_table(
            ["status", "cells"], rows, title="Cell outcomes"))

    # Phase time breakdown: corpus level, then engine level.
    phases = payload["phases"]
    if phases:
        grand = sum(phases.values()) or 1.0
        rows = [[phase, _fmt_s(total), f"{100 * total / grand:.1f}%"]
                for phase, total in sorted(
                    phases.items(), key=lambda kv: -kv[1])]
        sections.append(format_table(
            ["phase", "total s", "share"], rows,
            title="Cell phase time breakdown"))

    if payload["engine_phases"]:
        rows = [[r["engine"], r["phase"], r["samples"],
                 _fmt_s(r["total_s"]), _fmt_ms(r["p50_s"]),
                 _fmt_ms(r["p95_s"])] for r in payload["engine_phases"]]
        sections.append(format_table(
            ["engine", "phase", "samples", "total s", "p50 ms", "p95 ms"],
            rows, title="Engine phase timing (sampled)"))

    # Failure taxonomy.
    if payload["failures"] or payload["retries"]:
        rows = [[kind, count]
                for kind, count in sorted(payload["failures"].items())]
        rows.append(["(retries)", payload["retries"]])
        sections.append(format_table(
            ["failure kind", "count"], rows, title="Failure taxonomy"))

    # Graph plane: resolution sources + hit rate, shm traffic.
    resolutions = payload["graph_sources"]
    if resolutions:
        total = sum(resolutions.values())
        rows = [[source, count, f"{100 * count / total:.1f}%"]
                for source, count in sorted(resolutions.items())]
        hits = resolutions.get("shm", 0) + resolutions.get("cache", 0)
        rows.append(["(hit rate)", hits, f"{100 * hits / total:.1f}%"])
        sections.append(format_table(
            ["graph source", "count", "share"], rows,
            title="Graph resolution"))
    shm = payload["shm"]
    extras = []
    if shm["publishes"] or shm["attach_failures"]:
        extras.append(f"shm published: {_fmt_bytes(shm['bytes'])}"
                      + (f", attach failures: {shm['attach_failures']}"
                         if shm["attach_failures"] else ""))
    if payload["health_trips"]:
        extras.append("health trips: " + ", ".join(
            f"{cond}={n}"
            for cond, n in sorted(payload["health_trips"].items())))
    peaks = payload["peak_rss"]
    if peaks:
        extras.append(f"peak RSS: {_fmt_bytes(peaks[0]['bytes'])}")
        if len(peaks) > 1:
            # One row per process: a node name alone repeats across a
            # node agent and its crew workers.
            extras.append("peak RSS by worker: " + ", ".join(
                (f"{p['node']} " if p["node"] else "")
                + f"pid {p['pid']}={_fmt_bytes(p['bytes'])}"
                for p in peaks))
    if extras:
        sections.append("\n".join(extras))

    # Ensemble search: per-search walls, states scored, tile cache.
    if payload["searches"]:
        rows = [[r["metric"], r["strategy"], r["size"], r["searches"],
                 _fmt_s(r["total_s"])] for r in payload["searches"]]
        sections.append(format_table(
            ["metric", "strategy", "size", "searches", "total s"],
            rows, title="Ensemble search"))
    search = payload["search"]
    search_extras = []
    if search["states"]:
        search_extras.append(f"ensemble states scored: {search['states']}")
    lookups = search["cache_hits"] + search["cache_misses"]
    if lookups:
        search_extras.append(
            f"distance-tile cache: {search['cache_hits']}/{lookups} hits "
            f"({100.0 * search['cache_hits'] / lookups:.1f}%)")
    if search["greedy_steps"]:
        search_extras.append(
            f"greedy gain re-evaluations: mean "
            f"{search['reevaluations'] / search['greedy_steps']:.1f}/step "
            f"over {search['greedy_steps']} steps")
    if search_extras:
        sections.append("\n".join(search_extras))

    # Iteration latency percentiles per engine/algorithm.
    if payload["iterations"]:
        rows = [[r["engine"], r["algorithm"], r["iterations"],
                 _fmt_ms(r["p50_s"]), _fmt_ms(r["p95_s"])]
                for r in payload["iterations"]]
        sections.append(format_table(
            ["engine", "algorithm", "iters", "p50 ms", "p95 ms"],
            rows, title="Iteration latency (sampled)"))

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
        if isinstance(value, float):
            value = f"{value:.4g}"
        elif isinstance(value, (list, dict)):
            value = f"<{len(value)} values>"
        parts.append(f"{key}={value}")
    return " ".join(parts)

