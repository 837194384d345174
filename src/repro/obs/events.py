"""Append-only JSONL event log with rotation, plus worker-sink merge.

The event log is the observability plane's one record: every number
``repro stats`` prints is a fold over it (:mod:`repro.obs.stats`).
Layout of an observability directory (one per corpus build / run)::

    <obs_dir>/
        events.jsonl          # main event stream (parent process)
        events.jsonl.1 ...    # rotated generations, newest = .1
        sinks/
            events-<id>.jsonl   # per-worker / per-node sink, merged + removed

Every event is one JSON object per line with at least ``ts`` (unix
seconds), ``kind`` and ``pid``; run/cell/attempt identifiers are added
by :class:`~repro.obs.telemetry.Telemetry` when set.  Each line is
flushed as it is written, so a process killed by SIGKILL keeps every
event it emitted before it died; at most one partial line is left at
the end of its sink, which :func:`read_events` silently skips.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro._util.durable import sanitize

EVENTS_FILENAME = "events.jsonl"
SINKS_DIRNAME = "sinks"

DEFAULT_MAX_BYTES = 4 << 20
DEFAULT_BACKUPS = 3


class EventLog:
    """Append-only JSONL file, rotated at ``max_bytes`` into backups.

    Rotation shifts ``events.jsonl`` → ``events.jsonl.1`` → ``.2`` …,
    dropping the oldest beyond ``backups`` generations, so the log is
    bounded at roughly ``(backups + 1) * max_bytes`` on disk.  One
    ``write()`` call per event keeps lines atomic in practice; readers
    still tolerate the rare torn tail.
    """

    def __init__(self, path: "str | Path",
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 backups: int = DEFAULT_BACKUPS) -> None:
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self._fh: "io.TextIOWrapper | None" = None
        self._size = 0

    def _open(self) -> io.TextIOWrapper:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._size = self._fh.tell()
        return self._fh

    def append(self, event: dict[str, Any]) -> None:
        line = json.dumps(event, separators=(",", ":"),
                          sort_keys=True, default=str) + "\n"
        fh = self._open()
        if self._size + len(line) > self.max_bytes and self._size > 0:
            self._rotate()
            fh = self._open()
        fh.write(line)
        fh.flush()
        self._size += len(line)

    def _rotate(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._size = 0
        oldest = self.path.with_name(f"{self.path.name}.{self.backups}")
        if oldest.exists():
            oldest.unlink()
        for gen in range(self.backups - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{gen}")
            if src.exists():
                os.replace(src, self.path.with_name(
                    f"{self.path.name}.{gen + 1}"))
        if self.backups > 0 and self.path.exists():
            os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))
        elif self.path.exists():
            self.path.unlink()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def worker_sink_path(obs_dir: "str | Path", pid: int) -> Path:
    """Per-worker sink file for a pool worker process."""

    return Path(obs_dir) / SINKS_DIRNAME / f"events-{pid}.jsonl"


def node_sink_path(obs_dir: "str | Path", node: str) -> Path:
    """Per-node sink file for a distributed-build node agent.

    Same ``events-<id>.jsonl`` shape as the worker sinks, so
    :func:`merge_sinks` folds node logs and worker logs identically.
    """

    return (Path(obs_dir) / SINKS_DIRNAME
            / f"events-{sanitize(node)}.jsonl")


def read_events(path: "str | Path") -> Iterator[dict[str, Any]]:
    """Yield events from one JSONL file, skipping torn/invalid lines."""

    path = Path(path)
    if not path.exists():
        return
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn line from a killed writer
            if isinstance(event, dict):
                yield event


def log_files(obs_dir: "str | Path") -> list[Path]:
    """Event-log generations of *obs_dir*, oldest first."""

    root = Path(obs_dir)
    main = root / EVENTS_FILENAME
    rotated = sorted(
        (p for p in root.glob(f"{EVENTS_FILENAME}.*")
         if p.suffix.lstrip(".").isdigit()),
        key=lambda p: int(p.suffix.lstrip(".")),
        reverse=True,
    )
    return rotated + ([main] if main.exists() else [])


def read_all_events(obs_dir: "str | Path") -> list[dict[str, Any]]:
    """All retained events of a run directory, oldest file first."""

    events: list[dict[str, Any]] = []
    for path in log_files(obs_dir):
        events.extend(read_events(path))
    return events


def merge_sinks(obs_dir: "str | Path", into: "EventLog | None") -> int:
    """Fold per-worker sink files into the main log.

    Each worker's event sink — *including* any rotated generations,
    oldest first — is appended to *into*, and removed.  Returns the
    number of events merged.
    """

    sink_dir = Path(obs_dir) / SINKS_DIRNAME
    if not sink_dir.is_dir():
        return 0
    merged = 0
    by_worker: dict[str, list[Path]] = {}
    for sink in sink_dir.glob("events-*.jsonl*"):
        stem = sink.name.split(".jsonl", 1)[0]
        by_worker.setdefault(stem, []).append(sink)

    def generation(path: Path) -> int:
        # events-<pid>.jsonl.3 is the oldest, the bare file the newest.
        suffix = path.suffix.lstrip(".")
        return -int(suffix) if suffix.isdigit() else 0

    for stem in sorted(by_worker):
        for sink in sorted(by_worker[stem], key=generation):
            for event in read_events(sink):
                if into is not None:
                    into.append(event)
                merged += 1
            sink.unlink(missing_ok=True)
    try:
        sink_dir.rmdir()
    except OSError:
        pass  # concurrent writer or leftover files; keep it
    return merged


def follow_events(obs_dir: "str | Path", *,
                  poll_s: float = 0.25,
                  duration_s: "float | None" = None,
                  stop: "Callable[[], bool] | None" = None,
                  ) -> Iterator[dict[str, Any]]:
    """Tail the main event log, yielding events as they are appended.

    Follows ``events.jsonl`` from its current end; detects rotation
    (file replaced under us) and reopens.  Stops after *duration_s*
    seconds, or when *stop()* returns true, whichever comes first.
    """

    path = Path(obs_dir) / EVENTS_FILENAME
    deadline = None if duration_s is None else time.monotonic() + duration_s
    fh: "io.TextIOWrapper | None" = None
    inode = -1
    buffer = ""
    # Only the log present when the follow begins is skipped; one that
    # appears later, or replaces it on rotation, is new from its start.
    skip_existing = True
    while True:
        if fh is None and path.exists():
            fh = open(path, encoding="utf-8", errors="replace")
            inode = os.fstat(fh.fileno()).st_ino
            if skip_existing:
                fh.seek(0, os.SEEK_END)
        skip_existing = False
        if fh is not None:
            chunk = fh.read()
            if chunk:
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(event, dict):
                        yield event
            else:
                try:
                    current = os.stat(path).st_ino
                except FileNotFoundError:
                    current = -1
                if current != inode:  # rotated under us
                    fh.close()
                    fh = None
                    buffer = ""
                    continue
        if stop is not None and stop():
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        time.sleep(poll_s)
    if fh is not None:
        fh.close()
