"""High-level run façade: ``run_computation("pagerank", spec)``.

A *graph computation* ``GC = <algorithm, graph size, degree
distribution>`` (paper Section 5.1) is represented by
:class:`GraphComputation`; :func:`run_computation` materializes the
graph, instantiates the vertex program with registry defaults, builds
the engine with profile-appropriate options, and returns the
:class:`~repro.behavior.trace.RunTrace`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

from repro._util.errors import ValidationError
from repro._util.faulthooks import hook_value
from repro._util.timing import Deadline, wall_clock_limit
from repro.algorithms.registry import create, info
from repro.behavior.trace import RunTrace
from repro.engine.engine import EngineOptions, SynchronousEngine
from repro.experiments.config import GraphSpec
from repro.generators.problem import ProblemInstance


@dataclass(frozen=True)
class GraphComputation:
    """A planned graph computation: algorithm + input spec.

    ``params`` override the algorithm's registry defaults; ``options``
    override engine options (max_iterations, work_model, ...).
    """

    algorithm: str
    spec: GraphSpec
    params: tuple[tuple[str, Any], ...] = ()
    options: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, algorithm: str, spec: GraphSpec,
             params: dict[str, Any] | None = None,
             options: dict[str, Any] | None = None) -> "GraphComputation":
        return cls(
            algorithm=algorithm,
            spec=spec,
            params=tuple(sorted((params or {}).items())),
            options=tuple(sorted((options or {}).items())),
        )

    @property
    def label(self) -> str:
        return f"{self.algorithm}@{self.spec.label}"

    def cache_key(self) -> str:
        extras = "".join(f"-{k}={v}" for k, v in self.params + self.options)
        return f"{self.algorithm}-{self.spec.cache_key()}{extras}"

    def run(self) -> RunTrace:
        return run_computation(self.algorithm, self.spec,
                               params=dict(self.params),
                               options=dict(self.options))


def build_engine_options(
    algorithm: str,
    overrides: dict[str, Any] | None = None,
) -> EngineOptions:
    """Merge registry per-algorithm defaults with caller overrides."""
    record = info(algorithm)
    merged: dict[str, Any] = dict(record.default_options)
    merged.update(overrides or {})
    return EngineOptions(**merged)


#: Fault-injection hooks for resilience testing. When the variable is
#: set and its value is a substring of ``<algorithm>-<spec cache key>``,
#: the matching run misbehaves *inside* :func:`run_computation` — the
#: same place a real engine fault would surface — so the corpus
#: runner's crash isolation, retries, and timeouts can be exercised
#: end-to-end (including across process-pool workers, which inherit the
#: environment).
INJECT_CRASH_ENV = "REPRO_INJECT_CRASH"
#: Value format: ``<substring>:<seconds>`` — the matching run sleeps
#: that long before executing (drives the wall-clock timeout path).
INJECT_SLEEP_ENV = "REPRO_INJECT_SLEEP"
#: Value format: ``<substring>:<kind>@<iteration>`` — the matching run
#: gets an *engine-level* fault plan (``nan``, ``diverge`` or
#: ``counter``, see :class:`~repro.engine.health.FaultPlan`) injected
#: into its engine options, so the health guards and the trace
#: validator can be exercised on otherwise-correct algorithms.
INJECT_ENGINE_FAULT_ENV = "REPRO_INJECT_ENGINE_FAULT"


def _maybe_inject_fault(run_key: str) -> None:
    target = os.environ.get(INJECT_CRASH_ENV)
    if target and target in run_key:
        raise RuntimeError(f"injected crash for {run_key}")
    seconds = hook_value(INJECT_SLEEP_ENV, run_key)
    if seconds is not None:
        time.sleep(float(seconds))


def run_computation(
    algorithm: str,
    spec_or_problem: GraphSpec | ProblemInstance,
    *,
    params: dict[str, Any] | None = None,
    options: dict[str, Any] | None = None,
    timeout_s: "float | None" = None,
) -> RunTrace:
    """Run one algorithm on one input and return its trace.

    Parameters
    ----------
    algorithm:
        Registry name (``"pagerank"``, ``"als"``, ...).
    spec_or_problem:
        Either a :class:`GraphSpec` (generated on demand) or an
        already-materialized :class:`ProblemInstance`.
    params:
        Algorithm parameter overrides (merged over registry defaults).
    options:
        Engine option overrides (merged over registry defaults), e.g.
        ``{"max_iterations": 20, "work_model": "measured"}``.
    timeout_s:
        Wall-clock limit covering graph materialization plus engine
        execution; None (default) disables it.

    Raises
    ------
    ValidationError
        If the algorithm's domain does not match the input's domain.
    ResourceLimitError
        If the run exceeds the engine memory budget (AD at the largest
        size under the paper profiles).
    RunTimeoutError
        If the run exceeds ``timeout_s`` of wall-clock time.
    """
    from repro.obs.telemetry import get_telemetry

    record = info(algorithm)
    merged_options = dict(options or {})
    tel = get_telemetry()
    with wall_clock_limit(timeout_s) as enforcement:
        # The budget clock starts *here*, before graph resolution:
        # without SIGALRM the cooperative fallback deadline must also
        # cover materialization, or a pathological generator stalls the
        # worker with no timeout at all. The fallback hands only the
        # budget left after materialize to the engine's per-iteration
        # checks, so the two phases share one limit instead of each
        # getting the full grant.
        fallback = (Deadline(timeout_s)
                    if timeout_s and not enforcement.enforced else None)
        enforcement.phase = "materialize"
        if isinstance(spec_or_problem, ProblemInstance):
            problem = spec_or_problem
            run_key = algorithm
            graph_source = "direct"
            materialize_s = 0.0
        elif isinstance(spec_or_problem, GraphSpec):
            run_key = f"{algorithm}-{spec_or_problem.cache_key()}"
            _maybe_inject_fault(run_key)
            # Resolution order: shared-memory graph plane, per-process
            # LRU cache, then generate. All three happen inside the
            # wall-clock limit, so the timeout covers a (cheap) attach
            # the same way it covered a (slow) regeneration.
            from repro.experiments.graph_cache import materialize_problem

            with tel.span("materialize") as mat_span:
                problem, graph_source = materialize_problem(spec_or_problem)
                mat_span.set(source=graph_source)
            materialize_s = mat_span.seconds
        else:
            raise ValidationError(
                f"expected GraphSpec or ProblemInstance, got "
                f"{type(spec_or_problem).__name__}"
            )
        if fallback is not None:
            fallback.check(phase="materialize")
        enforcement.phase = "engine"
        if problem.domain != record.domain:
            raise ValidationError(
                f"algorithm {algorithm!r} consumes domain {record.domain!r} "
                f"inputs but got {problem.domain!r}"
            )
        # The ``kind@iteration`` fault plan aimed at this run, if any.
        fault = hook_value(INJECT_ENGINE_FAULT_ENV, run_key)
        if fault is not None and "inject_fault" not in merged_options:
            merged_options["inject_fault"] = fault
        if (fallback is not None
                and "wall_clock_budget_s" not in merged_options):
            # SIGALRM cannot bite here; fall back to the engine's
            # cooperative per-iteration deadline, granting it only the
            # budget materialize left unspent.
            remaining = fallback.remaining()
            if remaining is not None:
                merged_options["wall_clock_budget_s"] = max(remaining, 1e-6)
        program = create(algorithm, **(params or {}))
        if program.scatter_shape == "center":
            # The fused scatter's SpMV needs scipy.sparse (~0.2 s to
            # import): load it before the engine clock starts, so the
            # first such run of a process does not charge the import
            # to its engine seconds.
            import scipy.sparse  # noqa: F401
        engine = SynchronousEngine(
            build_engine_options(algorithm, merged_options))
        with tel.span("engine_run", algorithm=algorithm) as run_span:
            trace = engine.run(program, problem)
            run_span.set(engine=trace.engine)
        engine_s = run_span.seconds
        trace.meta["materialize_s"] = materialize_s
        trace.meta["engine_s"] = engine_s
        trace.meta["graph_source"] = graph_source
        trace.meta["timeout_requested_s"] = timeout_s
        trace.meta["timeout_enforced"] = enforcement.enforced
        return trace
