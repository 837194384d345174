"""Exporters: Prometheus-style text snapshot and ``telemetry.json``.

Both render a :meth:`Telemetry.snapshot` dict; neither imports numpy
or anything outside the stdlib, keeping the plane dependency-free.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from repro._util.durable import publish, read_json_object
from repro.obs.events import PROM_FILENAME, TELEMETRY_FILENAME

#: Every exported series is namespaced to avoid collisions on shared
#: scrape endpoints.
PROM_PREFIX = "repro_"

TELEMETRY_SCHEMA = 1


def _prom_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """Prometheus text exposition of a metric snapshot."""

    lines: list[str] = []
    for name, entries in snapshot.get("counters", {}).items():
        full = f"{PROM_PREFIX}{name}"
        lines.append(f"# HELP {full} monotonic counter (sum-merged "
                     f"across workers)")
        lines.append(f"# TYPE {full} counter")
        for entry in entries:
            lines.append(f"{full}{_prom_labels(entry['labels'])} "
                         f"{entry['value']:g}")
    for name, entries in snapshot.get("gauges", {}).items():
        full = f"{PROM_PREFIX}{name}"
        lines.append(f"# HELP {full} peak gauge (max-merged across "
                     f"workers)")
        lines.append(f"# TYPE {full} gauge")
        for entry in entries:
            lines.append(f"{full}{_prom_labels(entry['labels'])} "
                         f"{entry['value']:g}")
    for name, entries in snapshot.get("histograms", {}).items():
        full = f"{PROM_PREFIX}{name}"
        lines.append(f"# HELP {full} summary: nearest-rank quantiles "
                     f"plus exact _count/_sum for rate and mean "
                     f"derivation")
        lines.append(f"# TYPE {full} summary")
        for entry in entries:
            labels = dict(entry["labels"])
            for q_key, q_val in (("p50", "0.5"), ("p95", "0.95")):
                q_labels = dict(labels, quantile=q_val)
                lines.append(f"{full}{_prom_labels(q_labels)} "
                             f"{entry[q_key]:g}")
            lines.append(f"{full}_sum{_prom_labels(labels)} "
                         f"{entry['sum']:g}")
            lines.append(f"{full}_count{_prom_labels(labels)} "
                         f"{entry['count']:g}")
    return "\n".join(lines) + "\n"


def write_prometheus(obs_dir: "str | Path",
                     snapshot: dict[str, Any]) -> Path:
    path = Path(obs_dir) / PROM_FILENAME
    publish(path, render_prometheus(snapshot))
    return path


def write_telemetry_json(obs_dir: "str | Path", snapshot: dict[str, Any],
                         **extra: Any) -> Path:
    """Drop the machine-readable metric snapshot next to the run."""

    path = Path(obs_dir) / TELEMETRY_FILENAME
    payload = {
        "schema": TELEMETRY_SCHEMA,
        "generated_at": time.time(),
        **extra,
        "metrics": snapshot,
    }
    publish(path, json.dumps(payload, indent=2, sort_keys=True,
                             default=str))
    return path


def load_telemetry(obs_dir: "str | Path") -> "dict[str, Any] | None":
    return read_json_object(Path(obs_dir) / TELEMETRY_FILENAME)
