"""Tests for the resilient corpus execution subsystem: the failure
taxonomy, crash isolation, timeouts, retries, quarantine, and resume."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro._util.errors import (
    CacheCorruptError,
    ResourceLimitError,
    RunTimeoutError,
    ValidationError,
)
from repro._util.timing import wall_clock_limit
from repro.behavior.run import INJECT_CRASH_ENV, INJECT_SLEEP_ENV
from repro.behavior.trace import RunTrace
from repro.experiments.config import BuildOptions, ExperimentMatrix, Profile
from repro.experiments.corpus import (
    build_corpus,
    execute_planned_run,
    run_cache_key,
)
from repro.experiments.failures import (
    EXPECTED_KINDS,
    FAILURE_KINDS,
    RETRYABLE_KINDS,
    RunFailure,
    classify_exception,
)
from repro.experiments.results import ResultStore
from tests.conftest import REPO_ROOT

#: Tiny two-size profile so resilience builds finish in a few seconds.
TINY_PROFILE = Profile(
    name="tiny",
    ga_sizes=(200, 600),
    cf_sizes=(80, 200),
    matrix_rows=(30,),
    grid_sides=(8,),
    mrf_edges=(40,),
    memory_budget_bytes=1_400_000,
    ad_n_hashes=64,
    coverage_samples=1_000,
    seed=11,
    alphas=(2.0, 2.5),
)

#: Substring of the injected cell's run key (<alg>-<spec cache key>).
CRASH_TARGET = "cc-ga-ne200-a2.0"


def _planned(algorithm: str):
    matrix = ExperimentMatrix(TINY_PROFILE)
    return [p for p in matrix.corpus_runs() if p.algorithm == algorithm][0]


class TestRunFailure:
    def test_kinds_are_closed(self):
        assert set(FAILURE_KINDS) == {"memory", "timeout", "numeric",
                                      "nonconvergence", "crash",
                                      "cache-corrupt", "lease-expired",
                                      "quarantined-poison", "disk-io"}
        with pytest.raises(ValidationError):
            RunFailure(kind="cosmic-ray", message="bit flip")

    def test_classification(self):
        assert classify_exception(ResourceLimitError("x")) == "memory"
        assert classify_exception(RunTimeoutError("x")) == "timeout"
        assert classify_exception(CacheCorruptError("x")) == "cache-corrupt"
        assert classify_exception(ZeroDivisionError()) == "crash"

    def test_from_exception_captures_traceback(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            failure = RunFailure.from_exception(exc, attempts=2)
        assert failure.kind == "crash"
        assert failure.message == "boom"
        assert "ValueError: boom" in failure.traceback
        assert failure.attempts == 2

    def test_expected_vs_retryable_partition(self):
        assert EXPECTED_KINDS == {"memory"}
        assert RETRYABLE_KINDS == {"timeout", "crash", "cache-corrupt",
                                   "lease-expired", "disk-io"}
        assert RunFailure(kind="memory", message="m").expected
        assert not RunFailure(kind="crash", message="c").expected
        assert RunFailure(kind="timeout", message="t").retryable
        # The health kinds are deterministic: never retried, never
        # expected — they always drive a nonzero corpus exit. A poison
        # quarantine is the *decision* to stop retrying, so it is
        # terminal too.
        for kind in ("numeric", "nonconvergence", "quarantined-poison"):
            failure = RunFailure(kind=kind, message="x")
            assert not failure.retryable
            assert not failure.expected

    def test_dict_roundtrip(self):
        failure = RunFailure(kind="timeout", message="slow",
                             traceback="tb", attempts=4)
        assert RunFailure.from_dict(failure.to_dict()) == failure


class TestWallClockLimit:
    def test_interrupts_a_sleeping_body(self):
        with pytest.raises(RunTimeoutError):
            with wall_clock_limit(0.05):
                time.sleep(5)

    def test_disabled_when_none_or_nonpositive(self):
        with wall_clock_limit(None):
            pass
        with wall_clock_limit(0):
            pass

    def test_timer_cleared_after_fast_body(self):
        with wall_clock_limit(0.05):
            pass
        time.sleep(0.1)  # the alarm must not fire after the block

    def test_reports_enforcement(self):
        with wall_clock_limit(30.0) as enforcement:
            assert enforcement.enforced
            assert enforcement.requested_s == 30.0
        with wall_clock_limit(None) as enforcement:
            assert not enforcement.enforced


class TestWallClockFallback:
    """SIGALRM is main-thread-only; elsewhere the limit degrades to the
    engines' cooperative per-iteration deadline."""

    def _in_thread(self, fn):
        import threading

        box: dict = {}

        def target():
            try:
                box["result"] = fn()
            except BaseException as exc:  # noqa: BLE001 - test relay
                box["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        if "error" in box:
            raise box["error"]
        return box["result"]

    def test_warns_once_and_reports_unenforced(self, monkeypatch):
        import repro._util.timing as timing

        monkeypatch.setattr(timing, "_WARNED_UNENFORCEABLE", False)

        def body():
            import warnings

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with wall_clock_limit(5.0) as first:
                    pass
                with wall_clock_limit(5.0) as second:
                    pass
            return first, second, caught

        first, second, caught = self._in_thread(body)
        assert not first.enforced and not second.enforced
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1  # warned exactly once per process
        assert "cooperative" in str(relevant[0].message)

    def test_deadline_raises_after_budget(self):
        from repro._util.timing import Deadline

        deadline = Deadline(0.01)
        time.sleep(0.05)
        with pytest.raises(RunTimeoutError) as excinfo:
            deadline.check()
        assert "cooperative" in str(excinfo.value)
        Deadline(None).check()  # disabled: never raises

    def test_engine_cooperative_deadline(self):
        from repro.behavior.run import run_computation
        from repro.experiments.config import GraphSpec

        spec = GraphSpec.for_domain("ga", nedges=400, alpha=2.5, seed=3)
        with pytest.raises(RunTimeoutError):
            run_computation("pagerank", spec,
                            options={"wall_clock_budget_s": 1e-9})

    def test_trace_records_enforcement_metadata(self):
        from repro.behavior.run import run_computation
        from repro.experiments.config import GraphSpec

        spec = GraphSpec.for_domain("ga", nedges=200, alpha=2.5, seed=3)
        trace = run_computation("cc", spec, timeout_s=60.0)
        assert trace.meta["timeout_enforced"] is True
        assert trace.meta["timeout_requested_s"] == 60.0

    def test_thread_run_falls_back_and_records(self, monkeypatch):
        import repro._util.timing as timing
        from repro.behavior.run import run_computation
        from repro.experiments.config import GraphSpec

        monkeypatch.setattr(timing, "_WARNED_UNENFORCEABLE", True)
        spec = GraphSpec.for_domain("ga", nedges=200, alpha=2.5, seed=3)
        trace = self._in_thread(
            lambda: run_computation("cc", spec, timeout_s=60.0))
        assert trace.meta["timeout_enforced"] is False
        assert not trace.degraded  # generous budget: run completes


class TestParamsAliasing:
    def test_context_deep_copies_params(self):
        """A program mutating nested param containers must not leak the
        mutation back into the caller's (long-lived) options dict."""
        from repro.engine.context import Context
        from repro.generators import powerlaw_graph

        problem = powerlaw_graph(100, 2.5, seed=1)
        params = {"tolerance": 1e-3, "schedule": [1, 2, 3],
                  "nested": {"k": 5}}
        ctx = Context(problem, params=params)
        ctx.params["schedule"].append(99)
        ctx.params["nested"]["k"] = -1
        ctx.params["tolerance"] = 0.5
        assert params == {"tolerance": 1e-3, "schedule": [1, 2, 3],
                          "nested": {"k": 5}}

    def test_engine_options_params_survive_two_runs(self):
        """Two contexts built from one long-lived EngineOptions must not
        share nested param containers: the first run's mutations would
        otherwise leak into every retry and later run."""
        from repro.engine.context import Context
        from repro.engine.engine import EngineOptions
        from repro.generators import powerlaw_graph

        problem = powerlaw_graph(100, 2.5, seed=1)
        opts = EngineOptions(params={"nested": {"k": 1}, "seq": [1]})
        first = Context(problem, params=opts.params)
        first.params["nested"]["k"] = 99
        first.params["seq"].append(2)
        second = Context(problem, params=opts.params)
        assert second.params == {"nested": {"k": 1}, "seq": [1]}
        assert opts.params == {"nested": {"k": 1}, "seq": [1]}


class TestExhaustiveClassification:
    #: Expected kind for every exception class defined in
    #: repro._util.errors; the test fails if a new error type is added
    #: without an explicit entry here.
    EXPECTED = {
        "ReproError": "crash",
        "ValidationError": "crash",
        "GraphConstructionError": "crash",
        "ResourceLimitError": "memory",
        "ConvergenceError": "nonconvergence",
        "NumericError": "numeric",
        "NonConvergenceError": "nonconvergence",
        "TraceInvariantError": "numeric",
        "RunTimeoutError": "timeout",
        "CacheCorruptError": "cache-corrupt",
    }

    def test_every_library_error_type_is_classified(self):
        import inspect

        import repro._util.errors as errors_mod

        classes = {
            name: obj for name, obj in vars(errors_mod).items()
            if inspect.isclass(obj) and issubclass(obj, Exception)
            and obj.__module__ == errors_mod.__name__
        }
        assert set(classes) == set(self.EXPECTED), (
            "error type added/removed without updating the "
            "classification table")
        for name, cls in classes.items():
            exc = cls("synthetic")
            kind = classify_exception(exc)
            assert kind == self.EXPECTED[name], (
                f"{name} classified as {kind!r}, "
                f"expected {self.EXPECTED[name]!r}")
            assert kind in FAILURE_KINDS

    def test_builtin_exceptions_are_crashes(self):
        for exc in (RuntimeError("x"), OSError("x"), KeyError("x"),
                    ZeroDivisionError()):
            assert classify_exception(exc) == "crash"


class TestCrashIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_injected_crash_does_not_abort_build(self, tmp_path,
                                                 monkeypatch, workers):
        monkeypatch.setenv(INJECT_CRASH_ENV, CRASH_TARGET)
        store = ResultStore(tmp_path)
        corpus = build_corpus(TINY_PROFILE, store=store, workers=workers)
        # Every other cell completed.
        assert corpus.n_runs == len(
            ExperimentMatrix(TINY_PROFILE).corpus_runs()) - 1
        [failed] = corpus.failures
        assert failed.algorithm == "cc"
        assert failed.failure.kind == "crash"
        assert "injected crash" in failed.failure.message
        assert "RuntimeError" in failed.failure.traceback
        assert corpus.unexpected_failures == [failed]

    def test_memory_failures_are_expected(self, tmp_path):
        profile = Profile(name="tiny-oom", ga_sizes=(200, 4_000),
                          cf_sizes=(80,), matrix_rows=(30,),
                          grid_sides=(8,), mrf_edges=(40,),
                          memory_budget_bytes=1_400_000,
                          coverage_samples=1_000, seed=11,
                          alphas=(2.5,))
        corpus = build_corpus(profile, store=ResultStore(tmp_path))
        assert corpus.failures  # AD at the largest size goes over budget
        assert all(f.failure.kind == "memory" for f in corpus.failures)
        assert corpus.unexpected_failures == []


class TestTimeoutsAndRetries:
    def test_slow_run_records_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv(INJECT_SLEEP_ENV, "sssp-ga-ne200-a2.0:5")
        run = execute_planned_run(_planned("sssp"), TINY_PROFILE,
                                  ResultStore(tmp_path),
                                  BuildOptions(timeout_s=0.2))
        assert not run.ok
        assert run.failure.kind == "timeout"
        assert "wall-clock" in run.failure.message

    def test_persistent_crash_exhausts_retries(self, tmp_path, monkeypatch):
        monkeypatch.setenv(INJECT_CRASH_ENV, CRASH_TARGET)
        run = execute_planned_run(_planned("cc"), TINY_PROFILE,
                                  ResultStore(tmp_path),
                                  BuildOptions(retries=2))
        assert run.failure.kind == "crash"
        assert run.failure.attempts == 3

    def test_transient_crash_succeeds_on_retry(self, tmp_path, monkeypatch):
        # Fail exactly once, then hand execution back to the real runner.
        import repro.experiments.corpus as corpus_mod
        from repro.behavior.run import run_computation as real_run

        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient I/O blip")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(corpus_mod, "run_computation", flaky)
        run = execute_planned_run(_planned("cc"), TINY_PROFILE,
                                  ResultStore(tmp_path),
                                  BuildOptions(retries=1))
        assert run.ok
        assert calls["n"] == 2

    def test_memory_failure_is_never_retried(self, tmp_path, monkeypatch):
        import repro.experiments.corpus as corpus_mod

        calls = {"n": 0}

        def always_oom(*args, **kwargs):
            calls["n"] += 1
            raise ResourceLimitError("over budget")

        monkeypatch.setattr(corpus_mod, "run_computation", always_oom)
        run = execute_planned_run(_planned("cc"), TINY_PROFILE,
                                  ResultStore(tmp_path),
                                  BuildOptions(retries=5))
        assert run.failure.kind == "memory"
        assert calls["n"] == 1


class TestQuarantineAndResume:
    def test_truncated_cache_entry_is_quarantined_and_reexecuted(
            self, tmp_path):
        store = ResultStore(tmp_path)
        planned = _planned("cc")
        first = execute_planned_run(planned, TINY_PROFILE, store)
        assert first.ok and first.source == "run"
        key = run_cache_key(planned, TINY_PROFILE)
        store._path(key).write_text('{"algorithm": "cc", "trunc')
        second = execute_planned_run(planned, TINY_PROFILE, store)
        assert second.ok and second.source == "run"
        assert store.n_quarantined() == 1
        # The re-executed trace was re-cached and now loads cleanly.
        third = execute_planned_run(planned, TINY_PROFILE, store)
        assert third.ok and third.source == "cache"

    def test_resume_skips_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = build_corpus(TINY_PROFILE, store=store)
        assert cold.n_executed == len(
            ExperimentMatrix(TINY_PROFILE).corpus_runs())
        resumed = build_corpus(TINY_PROFILE, store=store,
                               options=BuildOptions(resume=True))
        assert resumed.n_executed == 0
        assert resumed.n_cached == cold.n_executed
        assert [r.tag for r in resumed.runs] == [r.tag for r in cold.runs]

    def test_resume_reexecutes_only_the_failed_cell(self, tmp_path,
                                                    monkeypatch):
        store = ResultStore(tmp_path)
        monkeypatch.setenv(INJECT_CRASH_ENV, CRASH_TARGET)
        cold = build_corpus(TINY_PROFILE, store=store)
        assert len(cold.unexpected_failures) == 1
        monkeypatch.delenv(INJECT_CRASH_ENV)
        resumed = build_corpus(TINY_PROFILE, store=store,
                               options=BuildOptions(resume=True))
        assert resumed.n_executed == 1  # only the crashed cell
        assert resumed.failures == []
        assert resumed.n_runs == cold.n_runs + 1

    def test_without_resume_cached_crash_is_replayed(self, tmp_path,
                                                     monkeypatch):
        store = ResultStore(tmp_path)
        planned = _planned("cc")
        monkeypatch.setenv(INJECT_CRASH_ENV, CRASH_TARGET)
        execute_planned_run(planned, TINY_PROFILE, store)
        monkeypatch.delenv(INJECT_CRASH_ENV)
        replayed = execute_planned_run(planned, TINY_PROFILE, store)
        assert not replayed.ok
        assert replayed.source == "cache"
        assert replayed.failure.kind == "crash"


def _mistype_counter(data):
    data["iterations"][0]["updates"] = "many"


def _null_edge_count(data):
    data["n_edges"] = None


def _iterations_not_a_list(data):
    data["iterations"] = {}


def _no_edges(data):
    """Well-typed, but its per-edge metrics are undefined."""
    data["n_edges"] = 0


class TestMistypedEntries:
    """An entry that is JSON with the right key names but the wrong
    types is as corrupt as a torn one: quarantined, re-executed."""

    @pytest.fixture(scope="class")
    def tiny_root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("tiny-store")
        build_corpus(TINY_PROFILE, store=ResultStore(root))
        return root

    @pytest.mark.parametrize("mangle", [
        _mistype_counter, _null_edge_count, _iterations_not_a_list,
        _no_edges])
    def test_quarantined_reexecuted_then_cached(self, tiny_root, tmp_path,
                                                mangle):
        store = ResultStore(shutil.copytree(tiny_root, tmp_path / "store"))
        path = store._path(run_cache_key(_planned("cc"), TINY_PROFILE))
        data = json.loads(path.read_text())
        mangle(data)
        path.write_text(json.dumps(data))

        rebuilt = build_corpus(TINY_PROFILE, store=store)
        assert store.n_quarantined() == 1
        (run,) = [r for r in rebuilt.runs + rebuilt.failures
                  if r.source == "run"]
        assert run.ok and run.algorithm == "cc"
        assert rebuilt.unexpected_failures == []
        again = build_corpus(TINY_PROFILE, store=store)
        assert again.n_executed == 0 and store.n_quarantined() == 1
        assert again.unexpected_failures == []

    def test_from_dict_names_what_is_wrong(self):
        good = execute_planned_run(_planned("cc"), TINY_PROFILE).trace
        for mangle, what in ((_mistype_counter, "updates"),
                             (_null_edge_count, "n_edges"),
                             (_iterations_not_a_list, "iterations")):
            data = good.to_dict()
            mangle(data)
            with pytest.raises(ValidationError, match=what):
                RunTrace.from_dict(data)
        for bad_work in ("1.0", float("nan"), float("inf"), None, True):
            data = good.to_dict()
            data["iterations"][0]["work"] = bad_work
            with pytest.raises(ValidationError, match="work"):
                RunTrace.from_dict(data)
        data = good.to_dict()
        data["iterations"][0]["active"] = -1
        with pytest.raises(ValidationError, match="active"):
            RunTrace.from_dict(data)
        assert RunTrace.from_dict(good.to_dict()) == good


class TestProgressLines:
    def test_structured_progress(self, tmp_path, monkeypatch):
        monkeypatch.setenv(INJECT_CRASH_ENV, CRASH_TARGET)
        lines: list = []
        build_corpus(TINY_PROFILE, store=ResultStore(tmp_path),
                     progress=lines.append)
        total = len(ExperimentMatrix(TINY_PROFILE).corpus_runs())
        assert len(lines) == total
        assert lines[0].startswith("[1/")
        failed = [l for l in lines if "status=failed" in l]
        assert len(failed) == 1
        assert "kind=crash" in failed[0] and "attempts=1" in failed[0]
        ok = [l for l in lines if "status=ok" in l]
        assert all("source=run" in l for l in ok)


class TestEngineOptionValidation:
    def test_workmodel_has_no_unit_scale(self):
        from repro.engine.instrumentation import WorkModel

        assert not hasattr(WorkModel(), "unit_scale")

    def test_engine_options_validate_unit_scale(self):
        """The unit scale had one value everywhere: a constant beside
        ``WorkModel`` now, not an option to validate."""
        from repro.engine.engine import EngineOptions
        from repro.engine.instrumentation import UNIT_SCALE

        with pytest.raises(TypeError):
            EngineOptions(unit_scale=1e-6)
        assert UNIT_SCALE == 1e-9
        with pytest.raises(ValidationError):
            EngineOptions(memory_budget_bytes=0)

    def test_profile_validates_resilience_knobs(self):
        with pytest.raises(ValidationError):
            Profile(name="bad", ga_sizes=(1,), cf_sizes=(1,),
                    matrix_rows=(1,), grid_sides=(1,), mrf_edges=(1,),
                    run_timeout_s=0.0)
        with pytest.raises(ValidationError):
            Profile(name="bad", ga_sizes=(1,), cf_sizes=(1,),
                    matrix_rows=(1,), grid_sides=(1,), mrf_edges=(1,),
                    max_retries=-1)
        with pytest.raises(ValidationError):
            Profile(name="bad", ga_sizes=(1,), cf_sizes=(1,),
                    matrix_rows=(1,), grid_sides=(1,), mrf_edges=(1,),
                    retry_backoff_s=-0.1)


# ----------------------------------------------------------------------
# ResultStore quarantine under concurrent readers
# ----------------------------------------------------------------------
def _load_is_miss(payload) -> bool:
    """Module-level pool worker: load one key, report cache miss."""
    root, key = payload
    return ResultStore(root).load(key) is None


class TestConcurrentQuarantine:
    def test_corrupt_entry_quarantined_once_under_concurrency(
            self, tmp_path):
        """Many processes racing to load one corrupt cache entry: every
        load reports a miss (never a crash, never a half-read trace),
        and exactly one racer wins the quarantine move — the entry is
        preserved once, not duplicated or lost."""
        import concurrent.futures

        planned = _planned("cc")
        key = run_cache_key(planned, TINY_PROFILE)
        store = ResultStore(tmp_path)
        assert execute_planned_run(planned, TINY_PROFILE, store).ok
        path = store._path(key)
        blob = path.read_text(encoding="utf-8")
        path.write_text(blob[: len(blob) // 2], encoding="utf-8")

        with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
            misses = list(pool.map(_load_is_miss,
                                   [(store.root, key)] * 8))
        assert all(misses)
        assert not path.exists()
        assert sum(1 for _ in store.quarantine_dir.iterdir()) == 1


# ----------------------------------------------------------------------
# Cooperative stop (the CLI's SIGINT hook)
# ----------------------------------------------------------------------
class TestStopRequested:
    def test_stop_requested_interrupts_inline_build(self, tmp_path):
        polls = []

        def stop() -> bool:
            polls.append(1)
            return len(polls) > 3

        corpus = build_corpus(TINY_PROFILE, store=ResultStore(tmp_path),
                              workers=1, stop_requested=stop)
        assert corpus.interrupted
        total = len(ExperimentMatrix(TINY_PROFILE).corpus_runs())
        done = len(corpus.runs) + len(corpus.failures)
        assert 0 < done < total

    def test_interrupted_build_resumes_from_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        polls = []

        def stop() -> bool:
            polls.append(1)
            return len(polls) > 3

        first = build_corpus(TINY_PROFILE, store=store, workers=1,
                             stop_requested=stop)
        assert first.interrupted
        second = build_corpus(TINY_PROFILE, store=store, workers=1)
        assert not second.interrupted
        assert second.n_cached >= len(first.runs)
        total = len(ExperimentMatrix(TINY_PROFILE).corpus_runs())
        assert len(second.runs) + len(second.failures) == total

    def test_sigint_governor_two_stage(self, capsys):
        import signal as _signal

        from repro.cli import _SigintGovernor

        with _SigintGovernor() as governor:
            assert not governor.stop_requested()
            handler = _signal.getsignal(_signal.SIGINT)
            handler(_signal.SIGINT, None)
            assert governor.stop_requested()
            with pytest.raises(KeyboardInterrupt):
                handler(_signal.SIGINT, None)


class TestCorpusSigint:
    def test_first_sigint_stops_cleanly_exit_130(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        # Slow every cell down a touch so the build is still mid-flight
        # when the signal arrives.
        env["REPRO_INJECT_SLEEP"] = "-:0.05"
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "corpus",
             "--profile", "smoke", "--progress", "--workers", "2"],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        # Wait for the first progress line so the pool is actually up.
        line = proc.stdout.readline()
        assert line, "corpus produced no output"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 130, (out, err)
        assert "interrupted" in err
        assert "rerun the same command" in err


# ----------------------------------------------------------------------
# Chaos: workers SIGKILLed holding a lease; the lost cells run again
# whole and the corpus still converges
# ----------------------------------------------------------------------
class TestChaosKills:
    def test_corpus_survives_random_worker_sigkills(self, tmp_path,
                                                    monkeypatch):
        """SIGKILL crew workers as tasks reach them; builds must
        complete the corpus with vectors exactly matching an
        undisturbed build — and leak no shared-memory segments
        (workers only attach; the parent owns every name)."""
        import glob

        pre_segments = set(glob.glob("/dev/shm/repro-shm-*"))
        clean = build_corpus(TINY_PROFILE,
                             store=ResultStore(tmp_path / "clean"),
                             workers=1)
        assert not clean.unexpected_failures
        expected = [(v.tag, v.as_array().tolist())
                    for v in clean.vectors()]

        # A finite kill budget: each SIGKILL consumes one token, so the
        # chaos loop is guaranteed to terminate.
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        n_tokens = 3
        for i in range(n_tokens):
            (token_dir / f"token-{i}").touch()
        monkeypatch.setenv("REPRO_CHAOS_KILL", f"{token_dir}:1.0")

        store = ResultStore(tmp_path / "chaos")
        corpus = None
        for _attempt in range(n_tokens + 3):
            corpus = build_corpus(TINY_PROFILE, store=store, workers=2,
                                  options=BuildOptions(resume=True,
                                                       retries=0))
            if not corpus.unexpected_failures:
                break
        assert corpus is not None and not corpus.unexpected_failures, \
            [str(f.failure) for f in corpus.unexpected_failures]
        assert not list(token_dir.iterdir()), \
            "chaos kills never fired — the harness tested nothing"

        actual = [(v.tag, v.as_array().tolist()) for v in corpus.vectors()]
        assert sorted(actual) == sorted(expected)
        leaked = set(glob.glob("/dev/shm/repro-shm-*")) - pre_segments
        assert not leaked, f"chaos builds leaked shm segments: {leaked}"
