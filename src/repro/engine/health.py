"""Run-health monitoring: numeric guards, convergence watchdogs, and
engine-level fault injection.

The engines execute iterative numerical programs that can fail in ways
no exception ever reports: a Jacobi sweep on an ill-conditioned system
silently fills its state with NaN, an SGD run with a hot learning rate
diverges, a solver whose tolerance is below machine precision repeats
the same frontier until ``max_iterations``. Each of those still
produces a complete-looking :class:`~repro.behavior.trace.RunTrace`
whose counters then poison ensemble search — the untrustworthy-corpus
failure mode this subsystem exists to prevent.

Every engine owns one :class:`HealthMonitor` per run and feeds it one
observation per iteration (round / superstep). The monitor implements:

**Numeric guard**
    Scans the program's floating-point state arrays for NaN and the
    iteration's WORK counter for NaN/Inf. Inf in *state* is deliberately
    legal — SSSP distances and reduce identities use it — but NaN never
    is.

**Convergence watchdogs**
    For a deterministic program an exact recurrence of (frontier, full
    program state) is proof of pathology: minimal period 1 over a full
    window of blake2b signatures is a **stall** (the run can only
    repeat itself), period ≥ 2 is an **oscillation**. The signature is
    two-level (DESIGN §8): every check takes a word-sum fingerprint of
    the same bytes, and only a check whose fingerprint equals a recent
    one pays for the digest — a healthy run never hashes. A third
    watchdog tracks the magnitude of state; growth past
    ``divergence_factor`` × its observed floor is a **divergence**.

**Policy**
    ``strict`` raises :class:`~repro._util.errors.NumericError` /
    :class:`~repro._util.errors.NonConvergenceError`; ``degrade``
    returns a :class:`HealthVerdict` so the engine can stop early and
    flag the partial trace ``degraded``; ``off`` disables everything.

**Fault injection**
    A :class:`FaultPlan` (``"nan@3"``, ``"diverge@2"``, ``"counter@1"``)
    corrupts a live run at a chosen iteration so tests can exercise the
    full detection → classification → corpus-accounting path without a
    genuinely pathological program.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._util.errors import (
    NonConvergenceError,
    NumericError,
    ValidationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.behavior.trace import RunTrace
    from repro.engine.program import VertexProgram

#: Legal health policies, in decreasing strictness.
HEALTH_POLICIES: tuple[str, ...] = ("strict", "degrade", "off")

#: Watchdog conditions a verdict can carry (plus ``"numeric"``).
HEALTH_CONDITIONS: tuple[str, ...] = (
    "numeric", "stall", "oscillation", "divergence",
)

#: Fault kinds understood by :class:`FaultPlan`.
FAULT_KINDS: tuple[str, ...] = ("nan", "diverge", "counter")

#: Scale applied to state arrays per iteration by the ``diverge`` fault.
_DIVERGE_SCALE = 32.0

#: Recurrence window, in checks, of every run's stall / oscillation
#: watchdogs (see :class:`HealthMonitor`).
WATCHDOG_WINDOW = 20
#: Cadence, in steps of the loop (iterations / rounds / supersteps), of
#: every run's numeric guard + watchdog checks.
CHECK_EVERY = 1


def validate_health_policy(policy: str) -> None:
    """Validation of the ``health_policy`` every engine options
    dataclass carries."""
    if policy not in HEALTH_POLICIES:
        raise ValidationError(
            f"health_policy must be one of {HEALTH_POLICIES}, "
            f"got {policy!r}"
        )


def build_monitor(options) -> "HealthMonitor":
    """Construct a run's monitor from any engine options dataclass
    (which all carry the same ``health_policy``/``inject_fault``
    fields); the cadence and the window are :data:`CHECK_EVERY` and
    :data:`WATCHDOG_WINDOW`, read per run."""
    return HealthMonitor(
        policy=options.health_policy,
        check_every=CHECK_EVERY,
        window=WATCHDOG_WINDOW,
        fault=options.inject_fault,
    )


def mark_degraded(trace: "RunTrace", verdict: "HealthVerdict") -> None:
    """Flag a partial trace stopped early under the ``degrade`` policy."""
    trace.degraded = True
    trace.converged = False
    trace.health = {**verdict.to_dict(), "policy": "degrade"}
    trace.stop_reason = f"degraded-{verdict.condition}"


@dataclass(frozen=True)
class HealthVerdict:
    """One detected pathology: what, where, and why."""

    #: ``"numeric"``, ``"stall"``, ``"oscillation"``, or ``"divergence"``.
    condition: str
    #: Iteration (round / superstep) index at detection time.
    iteration: int
    #: Human-readable evidence.
    detail: str

    def to_dict(self) -> dict:
        return {"condition": self.condition, "iteration": self.iteration,
                "detail": self.detail}


@dataclass(frozen=True)
class FaultPlan:
    """Engine-level fault injection: ``<kind>@<iteration>``.

    ``nan``
        Writes NaN into the program's first float state array after the
        apply phase of the given iteration — a corrupted apply output.
    ``diverge``
        Multiplies every float state array by a constant factor each
        iteration from the given one on, forcing magnitude growth the
        divergence watchdog must catch.
    ``counter``
        Negates the iteration's EREAD counter, producing a structurally
        invalid trace that only
        :func:`~repro.behavior.validate.validate_trace` can catch
        (the in-engine guard deliberately leaves counter-sign checks to
        the validator).
    """

    kind: str
    iteration: int

    @classmethod
    def parse(cls, spec: "str | FaultPlan | None") -> "FaultPlan | None":
        """Parse ``"nan@3"``-style specs; None/empty disables injection."""
        if spec is None or isinstance(spec, FaultPlan):
            return spec or None
        text = str(spec).strip()
        if not text:
            return None
        kind, sep, iteration = text.partition("@")
        if not sep or kind not in FAULT_KINDS:
            raise ValidationError(
                f"fault spec must be '<kind>@<iteration>' with kind in "
                f"{FAULT_KINDS}, got {spec!r}"
            )
        try:
            at = int(iteration)
        except ValueError as exc:
            raise ValidationError(
                f"fault iteration must be an integer, got {iteration!r}"
            ) from exc
        if at < 0:
            raise ValidationError("fault iteration must be >= 0")
        return cls(kind=kind, iteration=at)

    # ------------------------------------------------------------------
    def corrupt_state(self, program: "VertexProgram", iteration: int) -> None:
        """Apply the ``nan``/``diverge`` fault to live program state."""
        if self.kind == "nan" and iteration == self.iteration:
            for arr in _float_state(program).values():
                if arr.size:
                    arr.flat[0] = np.nan
                    return
        elif self.kind == "diverge" and iteration >= self.iteration:
            for arr in _float_state(program).values():
                np.multiply(arr, _DIVERGE_SCALE, out=arr,
                            where=np.isfinite(arr))

    def corrupt_edge_reads(self, edge_reads: int, iteration: int) -> int:
        """Apply the ``counter`` fault to an iteration's EREAD value."""
        if self.kind == "counter" and iteration == self.iteration:
            return -edge_reads - 1
        return edge_reads


# ----------------------------------------------------------------------
# State discovery
# ----------------------------------------------------------------------
def _state_arrays(program: "VertexProgram") -> dict[str, np.ndarray]:
    """All ndarray attributes of a program instance, by attribute name.

    Programs keep their per-vertex/per-edge state as plain instance
    attributes (``self.rank``, ``self.dist``, ``self.factors``, ...),
    so discovery needs no per-program cooperation. Integer and boolean
    arrays participate in recurrence signatures; only floating arrays
    feed the NaN guard and the divergence norm.
    """
    return {name: value for name, value in vars(program).items()
            if isinstance(value, np.ndarray)}


def _float_state(program: "VertexProgram") -> dict[str, np.ndarray]:
    return {name: arr for name, arr in _state_arrays(program).items()
            if np.issubdtype(arr.dtype, np.floating)}


def _finite_peak(arr: np.ndarray) -> "float | None":
    """Max |finite value| of a non-empty float array; NaN if it holds a
    NaN (which propagates through ``max``), None if nothing in it is
    finite. One ``max`` / ``min`` pair; only an array holding Inf pays
    for a mask."""
    hi, lo = float(arr.max()), float(arr.min())
    if math.isnan(hi):
        return hi
    if math.isinf(hi) or math.isinf(lo):
        finite = np.isfinite(arr)
        hi = float(arr.max(where=finite, initial=-np.inf))
        lo = float(arr.min(where=finite, initial=np.inf))
        if hi < lo:
            return None
    return max(abs(hi), abs(lo))


def _signature(frontier: "np.ndarray | None",
               arrays: dict[str, np.ndarray]) -> bytes:
    """Digest of (frontier, every state array) — exact recurrence of
    this signature means the computation revisited an earlier global
    state."""
    digest = hashlib.blake2b(digest_size=16)
    if frontier is not None:
        f = np.ascontiguousarray(np.asarray(frontier, dtype=np.int64))
        digest.update(f.tobytes())
    for name in sorted(arrays):
        arr = arrays[name]
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.digest()


def _word_sum(arr: np.ndarray) -> int:
    """The array's bytes summed as 64-bit words modulo 2**64 (bytes
    past the last whole word are added singly): one SIMD pass."""
    raw = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
    whole = raw.size - raw.size % 8
    total = int(raw[:whole].view(np.uint64).sum(dtype=np.uint64))
    if whole != raw.size:
        total += int(raw[whole:].sum(dtype=np.uint64))
    return total


def _fingerprint(frontier: "np.ndarray | None",
                 arrays: dict[str, np.ndarray]) -> tuple:
    """Frontier size and the word sums of the bytes :func:`_signature`
    digests, at memory speed. A function of those bytes alone, so equal
    states have equal fingerprints and a check whose fingerprint is new
    cannot be a recurrence; the converse is false (a permuted array
    sums the same), so a fingerprint only ever *nominates* a check for
    the digest and decides nothing."""
    if frontier is None:
        words = [0, 0]
    else:
        f = np.asarray(frontier, dtype=np.int64)
        words = [f.size, _word_sum(f)]
    words.extend(_word_sum(arrays[name]) for name in sorted(arrays))
    return tuple(words)


def _minimal_period(history: "deque[bytes | None]") -> "int | None":
    """Smallest p ≥ 1 such that the whole history is p-periodic, or
    None if aperiodic over the window. An entry that was never digested
    (None) equals nothing, itself included: a history holding one has
    no period."""
    sigs = list(history)
    if None in sigs:
        return None
    n = len(sigs)
    for period in range(1, n // 2 + 1):
        if all(sigs[i] == sigs[i - period] for i in range(period, n)):
            return period
    return None


class HealthMonitor:
    """Per-run health state machine fed by the engine's iteration loop.

    Parameters
    ----------
    policy:
        ``"strict"`` (raise), ``"degrade"`` (return a verdict so the
        engine stops early and flags the trace), or ``"off"``.
    check_every:
        Cadence, in iterations, of guard + watchdog evaluation. The
        recurrence window counts *checks*, not iterations.
    window:
        Number of recent signatures kept; a stall/oscillation fires only
        once the window is full *of digests*, so small runs are never
        flagged. A check is digested when its fingerprint equals one of
        the previous ``window // 2`` — every check from the second
        period of a recurrence on — so a recurrence of period ``p`` that
        starts at check ``s`` fires at check ``s + window - 1 + p``:
        ``p`` checks (``p * check_every`` iterations) after an
        every-check digest would.
    divergence_factor:
        Growth of the state-magnitude norm, relative to its observed
        floor (with an absolute floor of 1.0), treated as divergence.
    fault:
        Optional :class:`FaultPlan` (or its string spec) injected into
        the run.
    """

    def __init__(
        self,
        *,
        policy: str = "strict",
        check_every: int = 1,
        window: int = WATCHDOG_WINDOW,
        divergence_factor: float = 1e6,
        fault: "str | FaultPlan | None" = None,
    ) -> None:
        validate_health_policy(policy)
        if check_every < 1:
            raise ValidationError("check_every must be >= 1")
        if window < 4:
            raise ValidationError("window must be >= 4")
        if divergence_factor <= 1.0:
            raise ValidationError("divergence_factor must be > 1")
        self.policy = policy
        self.check_every = int(check_every)
        self.window = int(window)
        self.divergence_factor = float(divergence_factor)
        self.fault = FaultPlan.parse(fault)
        #: One entry per check: its digest, or None where the
        #: fingerprint matched no recent one and nothing was hashed.
        self._signatures: "deque[bytes | None]" = deque(maxlen=self.window)
        #: Fingerprints of the checks a period <= window // 2 can reach.
        self._fingerprints: deque[tuple] = deque(maxlen=self.window // 2)
        self._norm_floor: "float | None" = None
        self.verdict: "HealthVerdict | None" = None

    @property
    def enabled(self) -> bool:
        return self.policy != "off"

    # ------------------------------------------------------------------
    # Fault injection entry points (called by engines even when policy
    # is "off": injected faults must corrupt runs regardless, so tests
    # can prove the *absence* of guards lets them through).
    # ------------------------------------------------------------------
    def inject_state_fault(self, program: "VertexProgram",
                           iteration: int) -> None:
        if self.fault is not None:
            self.fault.corrupt_state(program, iteration)

    def inject_edge_reads(self, edge_reads: int, iteration: int) -> int:
        if self.fault is None:
            return edge_reads
        return self.fault.corrupt_edge_reads(edge_reads, iteration)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        program: "VertexProgram",
        *,
        iteration: int,
        frontier: "np.ndarray | None",
        work: float = 0.0,
    ) -> "HealthVerdict | None":
        """Feed one completed iteration; returns a verdict under the
        ``degrade`` policy, raises under ``strict``, and remembers the
        verdict either way (``self.verdict``).

        Engines must stop iterating once a verdict is returned.
        """
        if not self.enabled or self.verdict is not None:
            return self.verdict
        if iteration % self.check_every:
            return None
        verdict = self._check(program, iteration=iteration,
                              frontier=frontier, work=work)
        if verdict is None:
            return None
        self.verdict = verdict
        # Watchdog trips are telemetry events regardless of policy —
        # recorded before the strict path raises.
        from repro.obs.telemetry import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            tel.emit("health", condition=verdict.condition,
                     policy=self.policy, algorithm=program.name,
                     iteration=verdict.iteration, detail=verdict.detail)
        if self.policy == "strict":
            if verdict.condition == "numeric":
                raise NumericError(
                    f"numeric guard tripped at iteration "
                    f"{verdict.iteration}: {verdict.detail}",
                    iteration=verdict.iteration, detail=verdict.detail,
                )
            raise NonConvergenceError(
                f"convergence watchdog detected {verdict.condition} at "
                f"iteration {verdict.iteration}: {verdict.detail}",
                condition=verdict.condition,
                iteration=verdict.iteration, detail=verdict.detail,
            )
        return verdict

    # ------------------------------------------------------------------
    def _check(self, program, *, iteration, frontier, work):
        state = _state_arrays(program)

        # ---- Numeric guard: NaN state, non-finite work counter.
        if not np.isfinite(work):
            return HealthVerdict("numeric", iteration,
                                 f"WORK counter is {work!r}")
        norm = None
        for name, arr in state.items():
            if not (arr.size and arr.dtype.kind == "f"):
                continue
            peak = _finite_peak(arr)
            if peak is None:
                continue
            if math.isnan(peak):
                count = int(np.isnan(arr).sum())
                return HealthVerdict(
                    "numeric", iteration,
                    f"state array {name!r} holds {count} NaN value(s)")
            norm = peak if norm is None else max(norm, peak)

        # ---- Divergence: state magnitude past its floor × factor.
        if norm is not None:
            if self._norm_floor is None:
                self._norm_floor = norm
            self._norm_floor = min(self._norm_floor, norm)
            threshold = self.divergence_factor * max(self._norm_floor, 1.0)
            if norm > threshold:
                return HealthVerdict(
                    "divergence", iteration,
                    f"state magnitude {norm:.3g} exceeds "
                    f"{self.divergence_factor:g}× its floor "
                    f"{self._norm_floor:.3g}")

        # ---- Stall / oscillation: exact (frontier, state) recurrence.
        # Only a state whose fingerprint was seen within reach of a
        # legal period can be one, so only that one is digested.
        fingerprint = _fingerprint(frontier, state)
        self._signatures.append(
            _signature(frontier, state)
            if fingerprint in self._fingerprints else None)
        self._fingerprints.append(fingerprint)
        if len(self._signatures) == self.window:
            period = _minimal_period(self._signatures)
            if period == 1:
                return HealthVerdict(
                    "stall", iteration,
                    f"frontier and state unchanged over the last "
                    f"{self.window} checks")
            if period is not None and period <= self.window // 2:
                return HealthVerdict(
                    "oscillation", iteration,
                    f"frontier and state repeat with period {period} "
                    f"over the last {self.window} checks")
        return None
