"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad shape, dtype, range, ...)."""


class GraphConstructionError(ReproError):
    """Raised when an edge list / specification cannot form a valid graph."""


class ResourceLimitError(ReproError):
    """Raised when a computation would exceed a configured resource budget.

    This reproduces the paper's observation that 5 runs of Approximate
    Diameter at the largest graph size failed: AD's per-vertex
    probabilistic-counting state is the largest of any algorithm in the
    suite, and the engine enforces an explicit memory budget instead of
    dying with an allocation failure.
    """

    def __init__(self, message: str, *, required_bytes: int | None = None,
                 budget_bytes: int | None = None) -> None:
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class ConvergenceError(ReproError):
    """Raised when an algorithm that must converge fails to do so."""


class NumericError(ReproError):
    """Raised by the run-health numeric guard on non-finite state.

    Iterative programs (Jacobi, LBP, SGD, ALS) can silently poison a
    run with NaN — every behavior counter downstream of a NaN apply is
    untrustworthy, yet the run would otherwise complete and enter the
    corpus. The engines therefore scan program state at a configurable
    cadence (see :mod:`repro.engine.health`) and raise this under the
    ``strict`` health policy; the corpus runner classifies it as the
    non-retryable ``"numeric"`` failure kind.
    """

    def __init__(self, message: str, *, iteration: int | None = None,
                 detail: str = "") -> None:
        super().__init__(message)
        self.iteration = iteration
        self.detail = detail


class NonConvergenceError(ConvergenceError):
    """Raised by a convergence watchdog on stall, oscillation, or divergence.

    ``condition`` names the detected pathology:

    - ``"stall"`` — frontier and program state recurred identically over
      the watchdog window; a deterministic run can only repeat itself
      until ``max_iterations``;
    - ``"oscillation"`` — the (frontier, state) signature is periodic
      with period ≥ 2 over the window;
    - ``"divergence"`` — the magnitude of program state grew past the
      configured divergence factor.

    Classified as the non-retryable ``"nonconvergence"`` failure kind.
    """

    def __init__(self, message: str, *, condition: str = "stall",
                 iteration: int | None = None, detail: str = "") -> None:
        super().__init__(message)
        self.condition = condition
        self.iteration = iteration
        self.detail = detail


class TraceInvariantError(ValidationError):
    """Raised when a completed trace violates a structural invariant.

    Every engine's output must satisfy the invariants enforced by
    :func:`repro.behavior.validate.validate_trace` (non-negative
    counters, bounded active sets, contiguous iteration indices, ...).
    A violation means the recorded observations are corrupt, so the
    corpus runner classifies it — like a failed numeric guard — as the
    non-retryable ``"numeric"`` failure kind.
    """


class RunTimeoutError(ReproError):
    """Raised when a run exceeds its configured wall-clock budget.

    The corpus runner enforces a per-run wall-clock limit so one
    pathological (algorithm, graph) cell cannot stall an unattended
    build; the timeout is delivered via ``SIGALRM`` (see
    :func:`repro._util.timing.wall_clock_limit`) and classified as the
    ``"timeout"`` failure kind.
    """

    def __init__(self, message: str, *,
                 timeout_s: float | None = None) -> None:
        super().__init__(message)
        self.timeout_s = timeout_s


class CacheCorruptError(ReproError):
    """Raised when a result-store entry is corrupt and cannot be quarantined.

    Ordinarily the store moves unreadable entries into its quarantine
    directory and the runner silently re-executes the cell; this error
    surfaces only when that recovery itself fails (e.g. the quarantine
    move hits a permission error), and is classified as the
    ``"cache-corrupt"`` failure kind.
    """
