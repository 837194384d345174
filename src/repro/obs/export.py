"""The ``telemetry.json`` exporter: a :meth:`Telemetry.snapshot` dict
written next to the run and read back by ``repro stats`` and CI.
Stdlib only, keeping the plane dependency-free.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from repro._util.durable import publish, read_json_object
from repro.obs.events import TELEMETRY_FILENAME

TELEMETRY_SCHEMA = 1


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
