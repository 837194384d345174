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

A corpus build takes from each cached trace six numbers and two flags,
so the store keeps those beside the entries, in the summary index
``<root>/index/summaries.json`` (DESIGN.md §7): one record per entry
file, holding the blake2b digest of the bytes it was reduced from.
:meth:`ResultStore.outcome` answers from a record only when the bytes
it reads from the entry *now* hash to that digest, and parses the entry
as :meth:`ResultStore.replay` does in every other case.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any

from repro._util import durable
from repro._util.errors import CacheCorruptError, ReproError, ValidationError
from repro.behavior.metrics import BehaviorMetrics, compute_metrics
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
#: The summary index, under the store root; in a directory of its own
#: so that no ``*.json`` scan of the root takes it for an entry.
_INDEX_PATH = Path("index", "summaries.json")
#: Bump when a record changes shape or a metric is added (records hold
#: :class:`BehaviorMetrics` positionally): an index of another number
#: is ignored whole and rebuilt by reads.
_INDEX_SCHEMA = 1


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.cwd() / ".repro_cache"


def _digest(text: str) -> str:
    """Digest of an entry's content as read (every entry is UTF-8)."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class StoredRun:
    """A cached successful run as :meth:`ResultStore.outcome` hands it
    out: what a corpus takes from the trace, and the way to the trace
    itself. Stands in for the trace in a
    :class:`~repro.experiments.corpus.CorpusRun` until something reads
    it."""

    root: Path
    key: str
    #: Digest of the entry bytes the fields below were reduced from.
    digest: str
    metrics: BehaviorMetrics
    degraded: bool
    health: "dict[str, Any]"
    graph_source: "str | None"
    #: The parsed trace, when this summary was made from it just now.
    trace: "RunTrace | None" = None

    def load(self) -> RunTrace:
        """The trace the summary was made from. Raises
        :class:`ReproError` when the entry has vanished or changed
        since: an ``ok`` run never hands back another run's trace, or
        none."""
        if self.trace is not None:
            return self.trace
        return ResultStore(self.root).load_summarised(self.key, self.digest)


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
        self._paths: "dict[str, Path]" = {}
        #: Records of the summary index by entry file name, read on
        #: first use; None until then and after :meth:`publish_index`.
        self._records: "dict[str, dict] | None" = None
        self._records_changed = False

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self._quarantine.root

    def _path(self, key: str) -> Path:
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = (
                self.root / f"{durable.entry_name(key)}.json")
        return path

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
        executor, the supervisor's DAG planner, the coordinator and
        the node agents all ask it through :meth:`outcome`, its summary
        door, so they cannot disagree on which cells a build will run
        (:meth:`load` and :meth:`load_failure` take it directly).
        Corrupt entries are quarantined and reported as a miss so the
        caller re-executes the run.
        """
        return self._replay(key, resume, self._parse_entry)

    def outcome(self, key: str,
                resume: bool = False) -> "StoredRun | RunFailure | None":
        """:meth:`replay` for a caller that wants the outcome but not
        the trace: same rule, same quarantine, a :class:`StoredRun` in
        place of the trace.

        The entry's bytes are read and hashed on every call. When the
        summary index holds a record made from bytes of that digest,
        the record is the answer — identical bytes parse, validate and
        reduce identically, so the check :meth:`replay` makes on every
        call was made when the record was. Otherwise the entry goes
        through :meth:`replay`'s parse and the outcome is recorded, for
        :meth:`publish_index` to write out.
        """
        return self._replay(key, resume, self._summary_of)

    def _replay(self, key: str, resume: bool, decode) -> Any:
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.quarantine(path)
            return None
        hit = decode(key, path, text)
        if isinstance(hit, RunFailure) and resume and hit.retryable:
            return None
        return hit

    def _parse_entry(self, key: str, path: Path,
                     text: str) -> "RunTrace | RunFailure | None":
        """Parse and validate one entry's content; an unreadable entry is
        quarantined. Decided from the one read — a second look could
        see an entry a writer published in between."""
        try:
            data = durable.parse_json_object(text)
            if data.get(_FAILED_MARKER):
                return RunFailure.from_dict(data)
            return RunTrace.from_dict(data)
        except (TypeError, KeyError, ValueError):
            self.quarantine(path)
            return None

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
    # Summary index
    # ------------------------------------------------------------------
    def _summary_of(self, key: str, path: Path,
                    text: str) -> "StoredRun | RunFailure | None":
        """The outcome in ``text``: from the index when a record vouches
        for exactly this content, else parsed, reduced and recorded."""
        if self._records is None:
            self._records = self._read_index()
        digest = _digest(text)
        record = self._records.get(path.name)
        if record is not None:
            try:
                if record["entry_blake2b"] == digest:
                    return self._decode_record(key, digest, record)
            except (TypeError, KeyError, ValueError):
                pass  # not a record this code wrote: replace it
        hit = self._parse_entry(key, path, text)
        if hit is None:
            return None
        if isinstance(hit, RunFailure):
            record = {"entry_blake2b": digest,
                      "failure_record": hit.to_dict()}
        else:
            try:
                metrics = compute_metrics(hit)
            except ValidationError:
                # Loads, but no corpus can use it: as corrupt as an
                # entry that does not load.
                self.quarantine(path)
                return None
            record = {"entry_blake2b": digest,
                      "metric_values": astuple(metrics),
                      "degraded_flag": hit.degraded,
                      "health_verdict": hit.health,
                      "graph_origin": hit.meta.get("graph_source")}
            hit = StoredRun(self.root, key, digest, metrics, hit.degraded,
                            hit.health, hit.meta.get("graph_source"), hit)
        self._records[path.name] = record
        self._records_changed = True
        return hit

    def _decode_record(self, key: str, digest: str,
                       record: dict) -> "StoredRun | RunFailure":
        if "failure_record" in record:
            return RunFailure.from_dict(record["failure_record"])
        values, health = record["metric_values"], record["health_verdict"]
        if not (isinstance(health, dict)
                and {type(v) for v in values} <= {int, float}):
            raise TypeError("not a summary record")
        return StoredRun(self.root, key, digest, BehaviorMetrics(*values),
                         bool(record["degraded_flag"]), health,
                         record["graph_origin"])

    def _read_index(self) -> "dict[str, dict]":
        """The published records; none when the index is absent, torn
        or of another schema — every cell then takes the full parse
        and the index is written afresh."""
        data = durable.read_json_object(self.root / _INDEX_PATH)
        if data is None or data.get("schema") != _INDEX_SCHEMA:
            return {}
        records = data.get("entries")
        return records if isinstance(records, dict) else {}

    def publish_index(self) -> None:
        """Write the index out if :meth:`outcome` recorded anything the
        published one lacks, and let go of the copy in memory: the
        next call reads what is then on disk. Called once at the end
        of a build. Concurrent builds publish whole indexes, last
        writer wins; a lost record costs its cell one more parse. A
        store that cannot be written (read-only media) stays usable
        without an index."""
        records, changed = self._records, self._records_changed
        self._records, self._records_changed = None, False
        if not changed:
            return
        try:
            durable.publish(self.root / _INDEX_PATH, json.dumps(
                {"schema": _INDEX_SCHEMA, "entries": records}))
        except OSError:
            pass

    def load_summarised(self, key: str, digest: str) -> RunTrace:
        """The trace of the entry whose bytes hash to ``digest`` (see
        :meth:`StoredRun.load`)."""
        try:
            text = self._path(key).read_text(encoding="utf-8")
        except (OSError, ValueError):
            text = None
        if text is None or _digest(text) != digest:
            raise ReproError(
                f"cache entry {key!r} vanished or changed after the "
                f"corpus was built from its summary; rebuild the corpus")
        return RunTrace.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
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
        (self.root / _INDEX_PATH).unlink(missing_ok=True)
        self._records, self._records_changed = None, False
        return removed
