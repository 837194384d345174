"""Tests for the run-health subsystem: numeric guards, convergence
watchdogs, fault injection, trace validation, and corpus accounting."""

import warnings
from unittest import mock

import numpy as np
import pytest

from repro._util.errors import (
    NonConvergenceError,
    NumericError,
    TraceInvariantError,
    ValidationError,
)
from repro.algorithms.registry import create
from repro.behavior.run import INJECT_ENGINE_FAULT_ENV, run_computation
from repro.behavior.trace import IterationRecord, RunTrace
from repro.behavior.validate import validate_trace
from repro.engine import health as health_mod
from repro.engine import (
    AsyncEngineOptions,
    AsynchronousEngine,
    Context,
    Direction,
    EdgeCentricEngine,
    EdgeCentricOptions,
    EngineOptions,
    FaultPlan,
    GraphCentricEngine,
    GraphCentricOptions,
    HealthMonitor,
    SynchronousEngine,
    VertexProgram,
)
from repro.experiments.config import (
    BuildOptions,
    ExperimentMatrix,
    GraphSpec,
)
from repro.experiments.corpus import build_corpus, execute_planned_run
from repro.experiments.failures import classify_exception
from repro.experiments.results import ResultStore
from repro.generators import powerlaw_graph
from tests.test_resilience import TINY_PROFILE

ENGINE_NAMES = ("synchronous", "asynchronous", "edge-centric",
                "graph-centric")


class PathologicalProgram(VertexProgram):
    """Min-relaxation-shaped program whose dynamics are chosen per test.

    ``stall``
        State never changes and every out-edge signals, so the
        (frontier, state) signature recurs with period 1 forever.
    ``oscillation``
        State toggles between two values each iteration end — an exact
        period-2 recurrence.
    ``divergence``
        State magnitude grows 100× per iteration.
    ``healthy``
        Same always-signaling dynamics as ``stall``; used with fault
        injection, where the *injected* corruption must fire before any
        genuine watchdog does.
    """

    name = "pathological"
    domain = "ga"
    gather_dir = Direction.IN
    scatter_dir = Direction.OUT
    gather_op = "min"
    supports_async = True
    supports_edge_centric = True

    def __init__(self, mode: str = "stall") -> None:
        self.mode = mode
        self._ticks = 0

    def init(self, ctx: Context) -> np.ndarray:
        self.values = np.ones(ctx.n_vertices, dtype=np.float64)
        return ctx.all_vertices()

    def gather_edge(self, ctx, nbr, center, eid):
        return self.values[nbr]

    def apply(self, ctx, vids, acc):
        pass

    def scatter_edges(self, ctx, center, nbr, eid):
        return np.ones(center.shape[0], dtype=bool)

    def on_iteration_end(self, ctx):
        self._ticks += 1
        if self.mode == "oscillation":
            self.values[:] = float(self._ticks % 2)
        elif self.mode == "divergence":
            self.values *= 100.0


@pytest.fixture(scope="module")
def problem():
    return powerlaw_graph(300, 2.5, seed=5)


def run_engine(engine_name: str, program, problem, **health):
    """Run the named engine with a fast-failing watchdog window."""
    with mock.patch.object(health_mod, "WATCHDOG_WINDOW", 4):
        return _run_engine(engine_name, program, problem, **health)


def _run_engine(engine_name: str, program, problem, **health):
    if engine_name == "synchronous":
        return SynchronousEngine(
            EngineOptions(max_iterations=60, **health)).run(program, problem)
    if engine_name == "asynchronous":
        return AsynchronousEngine(
            AsyncEngineOptions(max_steps=200_000, **health)).run(
                program, problem)
    if engine_name == "edge-centric":
        return EdgeCentricEngine(
            EdgeCentricOptions(max_iterations=60, **health)).run(
                program, problem)
    return GraphCentricEngine(
        GraphCentricOptions(max_supersteps=60, max_inner_sweeps=3,
                            **health)).run(program, problem)


class TestWatchdogsAcrossEngines:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("condition",
                             ["stall", "oscillation", "divergence"])
    def test_strict_raises(self, engine, condition, problem):
        program = PathologicalProgram(condition)
        with pytest.raises(NonConvergenceError) as excinfo:
            run_engine(engine, program, problem, health_policy="strict")
        assert excinfo.value.condition == condition
        assert classify_exception(excinfo.value) == "nonconvergence"

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("condition",
                             ["stall", "oscillation", "divergence"])
    def test_degrade_flags_partial_trace(self, engine, condition, problem):
        program = PathologicalProgram(condition)
        trace = run_engine(engine, program, problem,
                           health_policy="degrade")
        assert trace.degraded
        assert not trace.converged
        assert trace.health["condition"] == condition
        assert trace.health["policy"] == "degrade"
        assert trace.stop_reason == f"degraded-{condition}"
        assert trace.engine == engine
        assert trace.iterations  # partial, not empty
        validate_trace(trace)  # a degraded trace is still well-formed
        assert "DEGRADED" in trace.summary()

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_off_lets_pathology_run_to_cap(self, engine, problem):
        trace = run_engine(engine, PathologicalProgram("stall"), problem,
                           health_policy="off")
        assert not trace.degraded
        assert trace.stop_reason in ("max-iterations", "max-steps",
                                     "max-supersteps")


class TestNaNInjectionAcrossEngines:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_strict_raises_numeric(self, engine, problem):
        program = PathologicalProgram("healthy")
        with pytest.raises(NumericError) as excinfo:
            run_engine(engine, program, problem,
                       inject_fault="nan@1", health_policy="strict")
        assert excinfo.value.iteration == 1
        assert classify_exception(excinfo.value) == "numeric"

    @pytest.mark.parametrize(
        "engine,algorithm",
        [(e, None) for e in ENGINE_NAMES]
        + [(e, "cc") for e in ENGINE_NAMES],
        ids=list(ENGINE_NAMES) + [f"{e}-cc" for e in ENGINE_NAMES])
    def test_degrade_flags_numeric(self, engine, algorithm, problem):
        # A real program must also *finish* on the poisoned state:
        # ``result()`` summarises it, and cc's integer labels used to
        # cast NaN ("invalid value encountered in cast").
        program = (PathologicalProgram("healthy") if algorithm is None
                   else create(algorithm))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = run_engine(engine, program, problem,
                               inject_fault="nan@1",
                               health_policy="degrade")
        assert trace.degraded
        assert trace.health["condition"] == "numeric"
        validate_trace(trace)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_counter_fault_caught_by_validator_not_guard(self, engine,
                                                         problem):
        # The in-engine guard does not check counter signs; the run
        # completes and only validate_trace rejects the trace.
        program = PathologicalProgram("divergence")
        trace = run_engine(engine, program, problem,
                           inject_fault="counter@0", health_policy="off")
        with pytest.raises(TraceInvariantError) as excinfo:
            validate_trace(trace)
        assert "edge_reads" in str(excinfo.value)
        assert classify_exception(excinfo.value) == "numeric"


class TestHealthMonitor:
    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            HealthMonitor(policy="lenient")
        with pytest.raises(ValidationError):
            HealthMonitor(check_every=0)
        with pytest.raises(ValidationError):
            HealthMonitor(window=3)
        with pytest.raises(ValidationError):
            HealthMonitor(divergence_factor=1.0)

    def test_engine_options_validate_health_knobs(self):
        for Options in (EngineOptions, AsyncEngineOptions,
                        EdgeCentricOptions, GraphCentricOptions):
            with pytest.raises(ValidationError):
                Options(health_policy="bogus")
            with pytest.raises(ValidationError):
                Options(wall_clock_budget_s=-1.0)

    def test_check_cadence_skips_iterations(self, problem, monkeypatch):
        # With checks every 5 iterations and a NaN at iteration 1, the
        # guard only sees the NaN at the next on-cadence iteration (5).
        monkeypatch.setattr(health_mod, "CHECK_EVERY", 5)
        program = PathologicalProgram("healthy")
        with pytest.raises(NumericError) as excinfo:
            run_engine("synchronous", program, problem,
                       inject_fault="nan@1")
        assert excinfo.value.iteration == 5

    def test_nonfinite_work_counter_is_numeric(self):
        monitor = HealthMonitor()
        program = PathologicalProgram("healthy")
        program.values = np.ones(4)
        with pytest.raises(NumericError):
            monitor.observe(program, iteration=0,
                            frontier=np.arange(4), work=float("inf"))

    def test_inf_state_is_legal(self):
        # SSSP keeps unreached distances at +inf; only NaN is a fault.
        monitor = HealthMonitor(window=4)
        program = PathologicalProgram("healthy")
        program.values = np.array([0.0, np.inf, np.inf])
        assert monitor.observe(program, iteration=0,
                               frontier=np.arange(3), work=1.0) is None

    def test_off_policy_observes_nothing(self):
        monitor = HealthMonitor(policy="off")
        program = PathologicalProgram("healthy")
        program.values = np.array([np.nan])
        assert not monitor.enabled
        assert monitor.observe(program, iteration=0, frontier=None,
                               work=1.0) is None


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("diverge@7")
        assert plan == FaultPlan(kind="diverge", iteration=7)
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse(plan) is plan

    @pytest.mark.parametrize("spec", ["nan", "@3", "meteor@1", "nan@x",
                                      "nan@-1"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValidationError):
            FaultPlan.parse(spec)

    def test_counter_fault_only_at_target_iteration(self):
        plan = FaultPlan(kind="counter", iteration=2)
        assert plan.corrupt_edge_reads(10, 1) == 10
        assert plan.corrupt_edge_reads(10, 2) == -11


class TestValidateTrace:
    def _trace(self, **overrides) -> RunTrace:
        trace = RunTrace(algorithm="pagerank", graph_params={},
                         domain="ga", n_vertices=10, n_edges=20,
                         work_model="unit", stop_reason="converged",
                         converged=True)
        trace.iterations = [
            IterationRecord(iteration=0, active=10, updates=10,
                            edge_reads=20, messages=5, work=1.0),
            IterationRecord(iteration=1, active=5, updates=5,
                            edge_reads=10, messages=0, work=0.5),
        ]
        for key, value in overrides.items():
            setattr(trace, key, value)
        return trace

    def test_accepts_well_formed(self):
        assert validate_trace(self._trace()) is not None

    def test_rejects_unknown_engine(self):
        with pytest.raises(TraceInvariantError):
            validate_trace(self._trace(engine="quantum"))

    def test_rejects_noncontiguous_iterations(self):
        trace = self._trace()
        trace.iterations[1] = IterationRecord(
            iteration=5, active=5, updates=5, edge_reads=10,
            messages=0, work=0.5)
        with pytest.raises(TraceInvariantError):
            validate_trace(trace)

    def test_rejects_active_above_nvertices(self):
        trace = self._trace()
        trace.iterations[0] = IterationRecord(
            iteration=0, active=11, updates=10, edge_reads=20,
            messages=5, work=1.0)
        with pytest.raises(TraceInvariantError):
            validate_trace(trace)

    def test_graph_centric_may_exceed_nvertices(self):
        # Inner sweeps re-apply vertices within one superstep.
        trace = self._trace(engine="graph-centric")
        trace.iterations[0] = IterationRecord(
            iteration=0, active=25, updates=25, edge_reads=30,
            messages=5, work=1.0)
        validate_trace(trace)

    def test_rejects_nonfinite_work(self):
        trace = self._trace()
        trace.iterations[0] = IterationRecord(
            iteration=0, active=10, updates=10, edge_reads=20,
            messages=5, work=float("nan"))
        with pytest.raises(TraceInvariantError):
            validate_trace(trace)

    def test_rejects_degraded_without_health(self):
        with pytest.raises(TraceInvariantError):
            validate_trace(self._trace(degraded=True, converged=False))

    def test_rejects_degraded_marked_converged(self):
        with pytest.raises(TraceInvariantError):
            validate_trace(self._trace(
                degraded=True, converged=True,
                health={"condition": "stall", "iteration": 1,
                        "detail": "x", "policy": "degrade"}))


class TestCorpusHealthAccounting:
    TARGET = "cc-ga-ne200-a2.0"

    def _planned(self, algorithm="cc"):
        matrix = ExperimentMatrix(TINY_PROFILE)
        return [p for p in matrix.corpus_runs()
                if p.algorithm == algorithm][0]

    def test_numeric_failure_recorded_never_retried(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv(INJECT_ENGINE_FAULT_ENV, f"{self.TARGET}:nan@1")
        run = execute_planned_run(self._planned(), TINY_PROFILE,
                                  ResultStore(tmp_path),
                                  BuildOptions(retries=3))
        assert not run.ok
        assert run.failure.kind == "numeric"
        assert run.failure.attempts == 1  # deterministic: no retries
        assert not run.failure.expected
        assert "NaN" in run.failure.message

    def test_faulty_cell_does_not_abort_build(self, tmp_path, monkeypatch):
        monkeypatch.setenv(INJECT_ENGINE_FAULT_ENV,
                           f"{self.TARGET}:diverge@0")
        corpus = build_corpus(TINY_PROFILE, store=ResultStore(tmp_path))
        total = len(ExperimentMatrix(TINY_PROFILE).corpus_runs())
        assert corpus.n_runs == total - 1  # every other cell completed
        [failed] = corpus.failures
        assert failed.failure.kind == "nonconvergence"
        assert corpus.unexpected_failures == [failed]

    def test_degrade_policy_keeps_flagged_run_out_of_vectors(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(INJECT_ENGINE_FAULT_ENV, f"{self.TARGET}:nan@1")
        corpus = build_corpus(TINY_PROFILE, store=ResultStore(tmp_path),
                              options=BuildOptions(health_policy="degrade"))
        total = len(ExperimentMatrix(TINY_PROFILE).corpus_runs())
        assert corpus.n_runs == total  # the degraded run still completed
        assert corpus.failures == []
        [degraded] = corpus.degraded_runs
        assert degraded.algorithm == "cc"
        assert degraded.trace.health["condition"] == "numeric"
        assert len(corpus.vectors()) == total - 1  # excluded from search
        assert "DEGRADED cc@" in corpus.summary()

    def test_progress_line_reports_health(self, tmp_path, monkeypatch):
        monkeypatch.setenv(INJECT_ENGINE_FAULT_ENV, f"{self.TARGET}:nan@1")
        lines: list = []
        build_corpus(TINY_PROFILE, store=ResultStore(tmp_path),
                     options=BuildOptions(health_policy="degrade"),
                     progress=lines.append)
        flagged = [l for l in lines if "health=" in l]
        assert len(flagged) == 1
        assert "status=degraded health=numeric" in flagged[0]

    def test_run_computation_translates_env_fault(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENGINE_FAULT_ENV, f"{self.TARGET}:nan@1")
        spec = GraphSpec.for_domain("ga", nedges=200, alpha=2.0,
                                    seed=TINY_PROFILE.seed)
        with pytest.raises(NumericError):
            run_computation("cc", spec)
        # Non-matching runs are untouched.
        trace = run_computation("sssp", spec)
        assert not trace.degraded
