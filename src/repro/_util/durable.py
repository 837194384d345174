"""Crash-safe files shared between processes.

The result store, the distributed queue, the heartbeats and the
telemetry exports all leave files that *another* process reads while
the writer may be killed, or raced by a second writer, at any
instruction. This module is the one statement of how such a file is
handled (docs/architecture.md, "Durable files"):

1. **Publish** — write the whole content into a staging file whose name
   no other writer can share (``<name>.<pid>.<uuid8>.tmp``, next to the
   target), then ``os.replace`` it over the target. A reader sees the
   old generation or the new one, never a mixture; two writers of one
   target cannot tear each other (last writer wins); a failed publish
   removes its staging file and leaves the old generation published.
2. **Read back** — a JSON-object file that is absent, torn or not an
   object is "nothing there"; a caller that must tell absent from
   unreadable decides from the one read's exception.
3. **Name** — an entry keyed by an arbitrary string is stored as the
   sanitized key plus a short hash of the *raw* key, so keys that
   sanitize identically (``a@b`` / ``a#b``) get distinct files.
4. **Set aside** — an unreadable entry is moved into a quarantine
   directory under a unique name; an oldest-first sweep bounds it.

No ``fsync``: these files are caches and liveness signals that a
resumed build recomputes; the guarantee is atomicity against process
death and concurrent writers, not durability against power loss. A
publish over an *existing* file still pays a data flush on ext4
(``auto_da_alloc`` writes the new data out before a replacing rename):
37-71 ms against 18-69 µs onto a fresh name (medians of 50 calls) on a
2-core VM's ext4 root. So a hot loop publishes only onto fresh names;
the one file rewritten in place is a peer node's heartbeat.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import time
import uuid
from pathlib import Path
from typing import Any, Callable

from repro._util.backoff import full_jitter_backoff
from repro._util.errors import ValidationError

#: OSError errnos treated as transient disk faults. EIO and ESTALE are
#: the flaky-mount signatures; ENOSPC is retryable because quarantine
#: sweeps and log rotation free space concurrently with a build.
TRANSIENT_DISK_ERRNOS: frozenset = frozenset({
    errno.EIO, errno.ENOSPC, errno.ESTALE,
})
#: Hex digits of the raw-key hash appended to every entry name.
_KEY_DIGEST_LEN = 10
#: What :func:`sanitize` replaces: ``\w`` is ``str.isalnum`` plus ``_``.
_UNSAFE = re.compile(r"[^\w\-.=]")


# ----------------------------------------------------------------------
# Publish
# ----------------------------------------------------------------------
def publish(path: Path, text: str, *, mkdir: bool = True) -> None:
    """Atomically make ``text`` the content of ``path`` (rule 1).

    ``mkdir=False`` is for files whose directory someone else owns and
    may already have swept: the write must then fail, not resurrect it.
    """
    if mkdir:
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def retry_transient_disk(fn: "Callable[[], Any]", *, key: str,
                         retries: int = 3, base_s: float = 0.02,
                         cap_s: float = 0.5,
                         sleep: "Callable[[float], None]" = time.sleep,
                         on_retry: "Callable | None" = None) -> Any:
    """Run ``fn`` with bounded jittered retries on transient disk I/O.

    Only :class:`OSError` with an errno in :data:`TRANSIENT_DISK_ERRNOS`
    is retried; anything else propagates immediately. After the retry
    budget is spent the last error propagates and the caller's normal
    failure path classifies it as ``disk-io`` (retryable at the cell
    level), with the errno preserved in the message. ``on_retry`` is
    called as ``on_retry(exc, attempt, delay_s)`` before each sleep so
    publish sites can count/emit without this module importing
    telemetry.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except OSError as exc:
            if exc.errno not in TRANSIENT_DISK_ERRNOS:
                raise
            attempt += 1
            if attempt > retries:
                raise
            delay = full_jitter_backoff(base_s, attempt,
                                        key=f"disk:{key}", cap_s=cap_s)
            if on_retry is not None:
                on_retry(exc, attempt, delay)
            if delay > 0:
                sleep(delay)


# ----------------------------------------------------------------------
# Read back
# ----------------------------------------------------------------------
def parse_json_object(text: str) -> dict:
    """The JSON object ``text`` spells; :class:`ValueError` when it is
    torn or not an object."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    return data


def read_json_object(path: Path) -> "dict | None":
    """The JSON object in ``path``, or None when there is none to be
    had (rule 2): a torn file means a writer outside this module died
    mid-write, and its owner will publish a whole one again."""
    try:
        return parse_json_object(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# Name
# ----------------------------------------------------------------------
def sanitize(text: str) -> str:
    """Filesystem-safe token: alnum plus ``-_.=``, the rest ``_``."""
    return _UNSAFE.sub("_", text)


def entry_name(key: str) -> str:
    """File stem for the entry keyed ``key`` (rule 3)."""
    safe = sanitize(key)
    if not safe:
        raise ValidationError("empty entry key")
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return f"{safe}-{digest[:_KEY_DIGEST_LEN]}"


# ----------------------------------------------------------------------
# Set aside
# ----------------------------------------------------------------------
class QuarantineDir:
    """A directory of set-aside entries matching ``pattern`` (rule 4).

    Quarantined files exist for post-mortem inspection, not
    correctness — their store already reported them as misses — so
    dropping the oldest loses nothing a resumed build needs.
    """

    def __init__(self, root: Path, pattern: str) -> None:
        self.root = root
        self.pattern = pattern

    def move(self, path: Path) -> "Path | None":
        """Move ``path`` in under a name no other mover can share.
        None if it vanished first (another process moved or replaced
        it); any other :class:`OSError` is the caller's to map."""
        dest = self.root / (f"{path.stem}.{os.getpid()}."
                            f"{uuid.uuid4().hex[:8]}{path.suffix}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except FileNotFoundError:
            return None
        return dest

    def sweep(self, keep: int) -> int:
        """Unlink all but the ``keep`` newest entries (by mtime, then by
        name); returns how many were removed. Entries another
        process sweeps first are skipped."""
        if keep < 0 or not self.root.exists():
            return 0
        entries = []
        for path in self.root.glob(self.pattern):
            try:
                entries.append((path.stat().st_mtime, path.name, path))
            except FileNotFoundError:
                continue
        entries.sort()
        removed = 0
        for _mtime, _name, path in entries[:max(0, len(entries) - keep)]:
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
        return removed

    def count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob(self.pattern))
