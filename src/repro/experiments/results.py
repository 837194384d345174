"""On-disk result store for run traces, hardened for multi-process use.

Building the 215-run behavior corpus takes seconds at the smoke profile
but minutes at the paper profile; every ensemble experiment (Figs 14-23,
Table 3) consumes the same corpus. The store caches each
:class:`~repro.behavior.trace.RunTrace` as one JSON file keyed by the
run's cache key (algorithm, graph spec, seed, parameter overrides), and
also remembers *failures* (as structured
:class:`~repro.experiments.failures.RunFailure` records) so expected
failures are not retried.

The corpus builder runs many worker processes against one store, so the
layout is designed for concurrent writers:

- **Atomic, collision-free writes and collision-proof filenames** —
  entries are published and named by :mod:`repro._util.durable`; two
  processes writing the same key never tear each other's bytes,
  last-writer-wins.
- **Quarantine, not silence** — an unreadable entry (truncated JSON, a
  schema mismatch) is moved into ``<root>/quarantine/`` and the load
  reports a miss, so the runner re-executes the cell instead of
  silently consuming a corrupt trace. Only if that move itself fails
  does the store raise :class:`~repro._util.errors.CacheCorruptError`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from pathlib import Path

from repro._util import durable
from repro._util.errors import CacheCorruptError, ValidationError
from repro.behavior.trace import RunTrace
from repro.experiments.failures import RunFailure

#: Environment variable overriding the cache directory.
CACHE_ENV = "REPRO_CACHE_DIR"
_FAILED_MARKER = "__failed__"
#: Subdirectory (under the store root) receiving corrupt entries.
QUARANTINE_DIRNAME = "quarantine"
#: Default quarantine retention: every :meth:`ResultStore.quarantine`
#: call sweeps the oldest entries beyond this bound, so resumed builds
#: cannot grow the directory without limit.
QUARANTINE_MAX_ENTRIES = 256


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.cwd() / ".repro_cache"


class ResultStore:
    """Directory-backed trace cache safe for concurrent writers.

    Parameters
    ----------
    root:
        Cache directory (created on first write). Defaults to
        ``$REPRO_CACHE_DIR`` or ``./.repro_cache``.
    """

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._quarantine = durable.QuarantineDir(
            self.root / QUARANTINE_DIRNAME, "*.json*")

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self._quarantine.root

    def _path(self, key: str) -> Path:
        return self.root / f"{durable.entry_name(key)}.json"

    def _write_atomic(self, path: Path, text: str) -> None:
        """Publish one entry. Transient disk faults (EIO, ENOSPC,
        ESTALE — shared-filesystem hiccups under multi-node builds)
        get bounded jittered retries before the error escapes to be
        recorded as a ``disk-io`` cell failure."""
        durable.retry_transient_disk(
            lambda: durable.publish(path, text), key=path.name,
            on_retry=self._count_disk_retry)

    @staticmethod
    def _count_disk_retry(exc: OSError, attempt: int,
                          delay_s: float) -> None:
        from repro.obs.telemetry import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            tel.inc("store_disk_retries_total")
            tel.emit("store", action="disk-retry", errno=exc.errno,
                     attempt=attempt, backoff_s=delay_s)

    def quarantine(self, path: Path) -> "Path | None":
        """Move a corrupt entry into the quarantine directory.

        Returns the quarantined path, or None if the entry vanished
        first (another process already quarantined or replaced it).
        Raises :class:`CacheCorruptError` if the move itself fails, so
        a permanently poisoned entry cannot cause an infinite
        load-fail-reexecute loop.
        """
        try:
            dest = self._quarantine.move(path)
        except OSError as exc:
            raise CacheCorruptError(
                f"corrupt cache entry {path} could not be quarantined: {exc}"
            ) from exc
        if dest is not None:
            # Bounded retention: quarantining is rare, so sweeping
            # inline here (one directory scan) keeps the directory
            # capped without a separate maintenance daemon.
            self.gc_quarantine(QUARANTINE_MAX_ENTRIES)
        return dest

    def gc_quarantine(self, keep: int = QUARANTINE_MAX_ENTRIES) -> int:
        """Oldest-first sweep keeping the ``keep`` newest quarantined
        entries; returns how many were removed."""
        return self._quarantine.sweep(keep)

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def replay(self, key: str,
               resume: bool = False) -> "RunTrace | RunFailure | None":
        """The stored outcome that satisfies a cell, or None when the
        cell must execute: nothing readable is stored, or the entry is
        a retryable failure and ``resume`` asks for those to run again.

        This is the one statement of the cache-replay rule; the cell
        executor, the pre-materialization planner, the coordinator and
        the node agents all ask it, so they cannot disagree on which
        cells a build will run. Corrupt entries are quarantined and
        reported as a miss so the caller re-executes the run.
        """
        data = self._read_entry(key)
        if data is None:
            return None
        try:
            if not data.get(_FAILED_MARKER):
                return RunTrace.from_dict(data)
            failure = RunFailure.from_dict(data)
        except (TypeError, KeyError, ValueError):
            self.quarantine(self._path(key))
            return None
        return None if resume and failure.retryable else failure

    def load(self, key: str) -> "RunTrace | None":
        """Return the cached trace, or None if absent or failed."""
        hit = self.replay(key)
        return hit if isinstance(hit, RunTrace) else None

    def save(self, key: str, trace: RunTrace) -> None:
        self._write_atomic(self._path(key), trace.to_json())

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def load_failure(self, key: str) -> "RunFailure | None":
        """Return the recorded failure for a key, if any."""
        hit = self.replay(key)
        return hit if isinstance(hit, RunFailure) else None

    def save_failure(self, key: str, failure: "RunFailure | str") -> None:
        if isinstance(failure, str):
            failure = RunFailure(kind="crash", message=failure)
        payload = {_FAILED_MARKER: True, **failure.to_dict()}
        self._write_atomic(self._path(key), json.dumps(payload))

    def iter_traces(self) -> "Iterator[RunTrace]":
        """Yield every readable cached trace, sorted by filename.

        Failure records are skipped. Unlike :meth:`load`, unreadable
        entries are merely skipped (not quarantined): enumeration is a
        read-only reporting path and must not mutate the store under a
        concurrently running build.
        """
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*.json")):
            data = durable.read_json_object(path)
            if data is None or data.get(_FAILED_MARKER):
                continue
            try:
                yield RunTrace.from_dict(data)
            except (TypeError, KeyError, ValidationError):
                continue

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _read_entry(self, key: str) -> "dict | None":
        """Read and parse one entry: absent is a miss, present but
        unreadable is quarantined. Decided from the one read — a second
        look could see an entry a writer published in between."""
        path = self._path(key)
        try:
            return durable.load_json_object(path)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.quarantine(path)
            return None

    def discard(self, key: str) -> bool:
        """Remove one entry (used by ``--resume`` to force a failed
        cell to re-execute); returns True if something was removed."""
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def n_quarantined(self) -> int:
        """Number of corrupt entries sitting in quarantine."""
        return self._quarantine.count()

    def clear(self) -> int:
        """Delete every cached entry (quarantine included); returns the
        number of live entries removed."""
        if not self.root.exists():
            return 0
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        self._quarantine.sweep(0)
        return removed
