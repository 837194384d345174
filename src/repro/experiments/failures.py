"""Structured failure taxonomy for corpus execution.

The paper reports partial failure as a first-class outcome ("5 runs of
AD with largest graph size failed"), and SoK-style audits of graph
benchmarks show that harnesses which collapse every fault into one
opaque string — or worse, abort the whole matrix — produce untrustworthy
corpora. Every failed cell is therefore recorded as a
:class:`RunFailure` with a machine-readable *kind*:

``memory``
    The run exceeded the engine memory budget
    (:class:`~repro._util.errors.ResourceLimitError`). Deterministic and
    *expected* — this is the paper's AD-at-largest-size failure mode —
    so it is never retried and does not fail the build.
``timeout``
    The run exceeded its wall-clock limit
    (:class:`~repro._util.errors.RunTimeoutError`). Possibly transient
    (machine load), so eligible for retry.
``numeric``
    The run produced numerically invalid data: a NaN in vertex state or
    a counter (:class:`~repro._util.errors.NumericError`), or a
    completed trace that violated a structural invariant
    (:class:`~repro._util.errors.TraceInvariantError`). Deterministic —
    the same inputs corrupt the same way — so never retried, and always
    *unexpected*: a numeric fault means the engine or an algorithm is
    wrong, not that the experiment legitimately exceeded a budget.
``nonconvergence``
    A convergence watchdog fired under the ``strict`` health policy —
    the run stalled, oscillated, or diverged
    (:class:`~repro._util.errors.ConvergenceError` and its
    :class:`~repro._util.errors.NonConvergenceError` subclass).
    Deterministic, never retried, unexpected.
``crash``
    Any other exception escaping the run. Isolated to its cell, recorded
    with the full traceback, eligible for retry, and reported as an
    *unexpected* failure (nonzero CLI exit).
``cache-corrupt``
    A result-store entry was corrupt and could not be quarantined
    (:class:`~repro._util.errors.CacheCorruptError`). Ordinary
    corruption never produces this: the store quarantines the bad file
    and the runner silently re-executes the cell.
``lease-expired``
    A scheduler lease on the cell expired: the worker holding it was
    killed, hung, or stopped heartbeating
    (:mod:`repro.experiments.scheduler`). An *infra* fault, not a cell
    fault — retryable, and the re-dispatched attempt runs the whole
    cell again.
``quarantined-poison``
    The cell burned through its lease-expiry budget (K expiries across
    distinct workers), so the supervisor quarantined it instead of
    retrying forever — the signature of a poison cell that kills or
    hangs whatever worker touches it. Never retried, always
    *unexpected* (nonzero CLI exit).
``disk-io``
    A transient I/O fault (``EIO``, ``ENOSPC``, ``ESTALE``) while
    publishing to the result store — the classic NFS /
    full-scratch-volume hiccup of multi-node builds on a shared
    filesystem. Retryable with bounded jittered retries at the publish
    site (:func:`repro._util.durable.retry_transient_disk`); the errno
    name is preserved in the message so operators can tell a flaky
    mount from a full disk.
"""

from __future__ import annotations

import errno as _errno
import traceback as _traceback
from dataclasses import dataclass

# Re-exported: the cell and lease retry sites import it from here.
from repro._util.backoff import full_jitter_backoff as full_jitter_backoff
from repro._util.durable import TRANSIENT_DISK_ERRNOS
from repro._util.errors import (
    CacheCorruptError,
    ConvergenceError,
    NumericError,
    ResourceLimitError,
    RunTimeoutError,
    TraceInvariantError,
    ValidationError,
)

#: Every legal failure kind, in severity order.
FAILURE_KINDS: tuple[str, ...] = (
    "memory", "timeout", "numeric", "nonconvergence", "crash",
    "cache-corrupt", "lease-expired", "quarantined-poison", "disk-io",
)

#: Kinds worth retrying (possibly transient). ``memory`` is excluded:
#: the budget check is deterministic, so re-running cannot succeed.
#: ``numeric`` and ``nonconvergence`` are excluded for the same reason —
#: the engines are deterministic, so a NaN or a stall reproduces
#: identically on retry. ``quarantined-poison`` is the *decision* to
#: stop retrying, so by construction it is not retryable.
RETRYABLE_KINDS: frozenset = frozenset({"timeout", "crash", "cache-corrupt",
                                        "lease-expired", "disk-io"})

#: Kinds that are part of the reproduced experiment rather than harness
#: faults; builds containing only these still exit 0.
EXPECTED_KINDS: frozenset = frozenset({"memory"})


def classify_exception(exc: BaseException) -> str:
    """Map an exception to its failure kind."""
    if isinstance(exc, ResourceLimitError):
        return "memory"
    if isinstance(exc, RunTimeoutError):
        return "timeout"
    if isinstance(exc, (NumericError, TraceInvariantError)):
        return "numeric"
    if isinstance(exc, ConvergenceError):
        return "nonconvergence"
    if isinstance(exc, CacheCorruptError):
        return "cache-corrupt"
    if (isinstance(exc, OSError)
            and exc.errno in TRANSIENT_DISK_ERRNOS):
        return "disk-io"
    return "crash"


@dataclass(frozen=True)
class RunFailure:
    """One failed corpus cell: kind, message, raw traceback, attempts."""

    kind: str
    message: str
    traceback: str = ""
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValidationError(
                f"unknown failure kind {self.kind!r}; "
                f"expected one of {FAILURE_KINDS}"
            )
        if self.attempts < 1:
            raise ValidationError("attempts must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def from_exception(cls, exc: BaseException, *,
                       attempts: int = 1) -> "RunFailure":
        """Classify ``exc`` and capture its traceback."""
        kind = classify_exception(exc)
        message = str(exc) or type(exc).__name__
        if kind == "disk-io":
            code = _errno.errorcode.get(
                getattr(exc, "errno", -1), str(getattr(exc, "errno", "?")))
            message = f"errno={code}: {message}"
        return cls(
            kind=kind,
            message=message,
            traceback="".join(_traceback.format_exception(exc)),
            attempts=attempts,
        )

    @classmethod
    def poison(cls, holder: str, losses: int, reason: str) -> "RunFailure":
        """The poison verdict on a cell that lost *losses* leases held
        by a *holder* (``"worker"`` or ``"node"``), the last through
        *reason*."""
        return cls(
            kind="quarantined-poison",
            message=(f"quarantined after {losses} lost {holder} leases "
                     f"(last: {reason}) — this cell takes down every "
                     f"{holder} that runs it"),
            attempts=losses)

    @property
    def expected(self) -> bool:
        """True for failures that are part of the reproduced experiment
        (the paper's out-of-budget AD runs) rather than harness faults."""
        return self.kind in EXPECTED_KINDS

    @property
    def retryable(self) -> bool:
        return self.kind in RETRYABLE_KINDS

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message,
                "traceback": self.traceback, "attempts": self.attempts}

    @classmethod
    def from_dict(cls, data: dict) -> "RunFailure":
        """Build from a stored record; tolerates the legacy
        ``{"reason": ...}`` format (which only ever recorded
        memory-budget failures)."""
        if "kind" not in data and "reason" in data:
            return cls(kind="memory", message=str(data["reason"]))
        return cls(
            kind=str(data.get("kind", "crash")),
            message=str(data.get("message", "unknown failure")),
            traceback=str(data.get("traceback", "")),
            attempts=int(data.get("attempts", 1)),
        )

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"
