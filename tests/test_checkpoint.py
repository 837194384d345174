"""Checkpoint/restore: crash-consistent snapshots, kill/resume
equivalence for all four engines, and the corpus chaos harness.

The headline guarantee under test: a run killed at iteration *k* and
resumed from its snapshot produces a **bit-identical** final vertex
state and an identical behavior vector to an uninterrupted run — for
every engine, at every kill point.
"""

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.algorithms.registry import create
from repro.behavior.metrics import compute_metrics
from repro.behavior.run import run_computation
from repro.engine import (
    AsyncEngineOptions,
    AsynchronousEngine,
    CheckpointConfig,
    CheckpointPolicy,
    CheckpointSession,
    EdgeCentricEngine,
    EdgeCentricOptions,
    EngineOptions,
    GraphCentricEngine,
    GraphCentricOptions,
    SimulatedKillError,
    Snapshot,
    SnapshotStore,
    SynchronousEngine,
)
from repro.engine.checkpoint import INJECT_KILL_ENV
from repro.experiments.config import BuildOptions, GraphSpec, Profile
from repro.experiments.corpus import (
    build_corpus,
    execute_planned_run,
    run_cache_key,
)
from repro.experiments.results import ResultStore
from repro.generators import powerlaw_graph
from tests.conftest import REPO_ROOT

ENGINES = ("synchronous", "asynchronous", "edge-centric", "graph-centric")


# ----------------------------------------------------------------------
# Policy parsing
# ----------------------------------------------------------------------
class TestCheckpointPolicy:
    def test_parse_iterations(self):
        policy = CheckpointPolicy.parse("5")
        assert policy.every_iterations == 5
        assert policy.every_seconds is None

    def test_parse_seconds(self):
        policy = CheckpointPolicy.parse("2.5s")
        assert policy.every_iterations is None
        assert policy.every_seconds == 2.5

    def test_parse_combined(self):
        policy = CheckpointPolicy.parse("5,30s")
        assert policy.every_iterations == 5
        assert policy.every_seconds == 30.0

    def test_parse_int(self):
        assert CheckpointPolicy.parse(3).every_iterations == 3

    @pytest.mark.parametrize("bad", ["", "x", "3x,4", "-1", "0", "0s"])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValidationError):
            CheckpointPolicy.parse(bad)

    def test_str_roundtrips(self):
        assert str(CheckpointPolicy.parse("5,30s")) == "5,30s"


# ----------------------------------------------------------------------
# SnapshotStore: crash-consistent persistence
# ----------------------------------------------------------------------
def _dummy_snapshot(iteration: int) -> Snapshot:
    from repro.behavior.trace import RunTrace

    return Snapshot(
        engine="synchronous", algorithm="pagerank",
        n_vertices=10, n_edges=20, iteration=iteration,
        trace=RunTrace(algorithm="pagerank", graph_params={}, domain="ga",
                       n_vertices=10, n_edges=20),
        payload={"frontier": np.arange(3)},
    )


class TestSnapshotStore:
    def test_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("key", _dummy_snapshot(7))
        loaded = store.load_latest("key")
        assert loaded is not None
        assert loaded.iteration == 7
        np.testing.assert_array_equal(loaded.payload["frontier"],
                                      np.arange(3))

    def test_missing_key_is_cold_start(self, tmp_path):
        assert SnapshotStore(tmp_path).load_latest("nope") is None

    def test_keeps_two_generations(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("key", _dummy_snapshot(3))
        store.save("key", _dummy_snapshot(6))
        assert store._latest_path("key").exists()
        assert store._prev_path("key").exists()
        assert store.latest_iteration("key") == 6

    def test_bit_flip_detected_falls_back_to_prev(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("key", _dummy_snapshot(3))
        store.save("key", _dummy_snapshot(6))
        path = store._latest_path("key")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        loaded = store.load_latest("key")
        assert loaded is not None and loaded.iteration == 3  # prev gen
        assert store.n_quarantined() == 1
        assert not path.exists()

    def test_truncation_detected_cold_start(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("key", _dummy_snapshot(3))
        store.save("key", _dummy_snapshot(6))
        for path in (store._latest_path("key"), store._prev_path("key")):
            path.write_bytes(path.read_bytes()[:30])
        assert store.load_latest("key") is None  # never crashes
        assert store.n_quarantined() == 2

    def test_garbage_file_quarantined(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("key", _dummy_snapshot(3))
        store._latest_path("key").write_bytes(b"not a snapshot at all")
        assert store.load_latest("key") is None
        assert store.n_quarantined() == 1

    def test_discard_removes_generations(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("key", _dummy_snapshot(3))
        store.save("key", _dummy_snapshot(6))
        assert store.discard("key") == 2
        assert store.load_latest("key") is None

    def test_distinct_keys_do_not_collide(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("a@b", _dummy_snapshot(1))
        store.save("a#b", _dummy_snapshot(2))
        assert store.load_latest("a@b").iteration == 1
        assert store.load_latest("a#b").iteration == 2


class TestSessionIdentity:
    def test_refuses_mismatched_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("key", _dummy_snapshot(4))
        config = CheckpointConfig(store=store,
                                  policy=CheckpointPolicy.parse("1"),
                                  key="key")
        session = CheckpointSession.begin(config)
        problem = powerlaw_graph(100, 2.5, seed=1)
        with pytest.raises(ValidationError, match="refusing to resume"):
            session.load(engine="synchronous", program=create("cc"),
                         problem=problem)


# ----------------------------------------------------------------------
# Kill-at-k + resume equivalence, all four engines
# ----------------------------------------------------------------------
def _make_engine(name: str, checkpoint: "CheckpointConfig | None" = None):
    if name == "synchronous":
        return SynchronousEngine(EngineOptions(checkpoint=checkpoint))
    if name == "asynchronous":
        return AsynchronousEngine(AsyncEngineOptions(checkpoint=checkpoint))
    if name == "edge-centric":
        return EdgeCentricEngine(EdgeCentricOptions(checkpoint=checkpoint))
    return GraphCentricEngine(GraphCentricOptions(checkpoint=checkpoint))


@pytest.fixture(scope="module")
def kill_problem():
    return powerlaw_graph(600, 2.5, seed=9)


@pytest.fixture(scope="module")
def baselines(kill_problem):
    """Uninterrupted (trace, program) per engine — the equivalence
    oracle. CC runs on every engine and takes multiple iterations
    (rounds, supersteps) on all of them."""
    out = {}
    for engine in ENGINES:
        program = create("cc")
        out[engine] = (_make_engine(engine).run(program, kill_problem),
                       program)
    return out


def _assert_traces_identical(expected, actual):
    assert len(actual.iterations) == len(expected.iterations)
    assert actual.stop_reason == expected.stop_reason
    assert actual.converged == expected.converged
    for a, b in zip(expected.iterations, actual.iterations):
        assert (a.iteration, a.active, a.updates, a.edge_reads,
                a.messages, a.work) == \
               (b.iteration, b.active, b.updates, b.edge_reads,
                b.messages, b.work)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("position", ["early", "middle", "late"])
def test_kill_and_resume_is_bit_identical(engine, position, kill_problem,
                                          baselines, tmp_path, monkeypatch):
    base_trace, base_program = baselines[engine]
    n = len(base_trace.iterations)
    assert n >= 3, "problem too small to place three kill points"
    k = {"early": 0, "middle": n // 2, "late": n - 2}[position]

    store = SnapshotStore(tmp_path)
    key = f"kill-{engine}-{position}"

    # Phase 1: run with per-iteration snapshots, die right after the
    # snapshot covering iteration k is published.
    monkeypatch.setenv(INJECT_KILL_ENV, f"{key}:{k}")
    config = CheckpointConfig(store=store,
                              policy=CheckpointPolicy.parse("1"), key=key)
    with pytest.raises(SimulatedKillError):
        _make_engine(engine, config).run(create("cc"), kill_problem)
    assert store.latest_iteration(key) == k + 1

    # Phase 2: resume and run to completion.
    monkeypatch.delenv(INJECT_KILL_ENV)
    resumed_program = create("cc")
    config = CheckpointConfig(store=SnapshotStore(tmp_path),
                              policy=CheckpointPolicy.parse("1"), key=key)
    trace = _make_engine(engine, config).run(resumed_program, kill_problem)

    assert trace.meta["resumed_from_iteration"] == k + 1
    _assert_traces_identical(base_trace, trace)

    # Final vertex state: bit-identical, not approximately equal.
    for name, arr in vars(base_program).items():
        if isinstance(arr, np.ndarray):
            np.testing.assert_array_equal(getattr(resumed_program, name),
                                          arr, err_msg=name)

    # Behavior vector inputs are identical too.
    m_base, m_resumed = compute_metrics(base_trace), compute_metrics(trace)
    assert (m_base.updt, m_base.work, m_base.eread, m_base.msg) == \
           (m_resumed.updt, m_resumed.work, m_resumed.eread, m_resumed.msg)

    # Completed run cleans up its snapshots.
    assert store.load_latest(key) is None


@pytest.mark.parametrize("engine", ENGINES)
def test_resume_after_corrupt_latest_falls_back(engine, kill_problem,
                                                baselines, tmp_path,
                                                monkeypatch):
    """Corrupting the newest snapshot must not break resume: the store
    falls back to the previous generation and the run still finishes
    bit-identically."""
    base_trace, base_program = baselines[engine]
    n = len(base_trace.iterations)
    k = n // 2
    store = SnapshotStore(tmp_path)
    key = f"corrupt-{engine}"

    monkeypatch.setenv(INJECT_KILL_ENV, f"{key}:{k}")
    config = CheckpointConfig(store=store,
                              policy=CheckpointPolicy.parse("1"), key=key)
    with pytest.raises(SimulatedKillError):
        _make_engine(engine, config).run(create("cc"), kill_problem)
    monkeypatch.delenv(INJECT_KILL_ENV)

    latest = store._latest_path(key)
    blob = bytearray(latest.read_bytes())
    blob[-10] ^= 0xFF
    latest.write_bytes(bytes(blob))

    resumed_program = create("cc")
    config = CheckpointConfig(store=SnapshotStore(tmp_path),
                              policy=CheckpointPolicy.parse("1"), key=key)
    trace = _make_engine(engine, config).run(resumed_program, kill_problem)

    assert SnapshotStore(tmp_path).n_quarantined() == 1
    assert trace.meta["resumed_from_iteration"] == k  # prev generation
    _assert_traces_identical(base_trace, trace)
    np.testing.assert_array_equal(resumed_program.component,
                                  base_program.component)


def test_degrade_stop_flushes_final_snapshot(tmp_path):
    """A health `degrade` stop must leave a post-mortem snapshot on
    disk (normal completions discard theirs)."""
    problem = powerlaw_graph(300, 2.5, seed=5)
    store = SnapshotStore(tmp_path)
    config = CheckpointConfig(store=store,
                              policy=CheckpointPolicy.parse("1000"),
                              key="degraded-run")
    engine = SynchronousEngine(EngineOptions(
        health_policy="degrade", inject_fault="nan@3", checkpoint=config))
    trace = engine.run(create("pagerank"), problem)
    assert trace.degraded
    snapshot = store.load_latest("degraded-run")
    assert snapshot is not None
    assert snapshot.trace.degraded
    assert trace.meta["checkpoints_written"] >= 1


def test_checkpoint_policy_seconds_only(tmp_path):
    """A pure time-based policy snapshots without an iteration cadence
    (every iteration is 'due' once the clock budget elapsed — with a
    0-second budget, that is every iteration)."""
    problem = powerlaw_graph(300, 2.5, seed=5)
    store = SnapshotStore(tmp_path)
    config = CheckpointConfig(
        store=store, policy=CheckpointPolicy(every_seconds=1e-9),
        key="timed", discard_on_success=False)
    trace = SynchronousEngine(EngineOptions(checkpoint=config)).run(
        create("cc"), problem)
    assert trace.meta["checkpoints_written"] >= 1
    assert store.load_latest("timed") is not None


# ----------------------------------------------------------------------
# Corpus integration: resume across attempts, forward-progress budget
# ----------------------------------------------------------------------
TINY = Profile(
    name="tinyckpt",
    ga_sizes=(200, 600),
    cf_sizes=(80, 200),
    matrix_rows=(30,),
    grid_sides=(8,),
    mrf_edges=(40,),
    memory_budget_bytes=1_400_000,
    ad_n_hashes=64,
    coverage_samples=2_000,
    seed=11,
    alphas=(2.0, 2.5),
)


def _planned_cc():
    from repro.experiments.config import PlannedRun

    spec = GraphSpec.ga(nedges=600, alpha=2.5, seed=TINY.seed)
    return PlannedRun(algorithm="cc", spec=spec)


class TestCorpusCheckpointing:
    def test_killed_cell_resumes_with_zero_retry_budget(self, tmp_path,
                                                        monkeypatch):
        """An attempt that advanced the cell's snapshot does not charge
        the retry budget: retries=0 still completes after a kill,
        because the failed attempt made forward progress."""
        planned = _planned_cc()
        key = run_cache_key(planned, TINY)
        monkeypatch.setenv(INJECT_KILL_ENV, f"{key}:1")

        baseline = execute_planned_run(planned, TINY, None)
        run = execute_planned_run(planned, TINY, None, BuildOptions(
            retries=0, checkpoint_dir=tmp_path / "snaps",
            checkpoint_every="1"))
        assert run.ok, run.failure
        assert run.trace.meta["resumed_from_iteration"] == 2
        _assert_traces_identical(baseline.trace, run.trace)

    def test_no_progress_exhausts_budget(self, tmp_path, monkeypatch):
        """A crash before any snapshot is charged against the budget
        exactly as before: retries=0 records the failure on the first
        stalled attempt."""
        planned = _planned_cc()
        # The crash hook matches run_computation's key (no profile
        # prefix), unlike the snapshot key.
        monkeypatch.setenv("REPRO_INJECT_CRASH",
                           f"cc-{planned.spec.cache_key()}")
        run = execute_planned_run(planned, TINY, None, BuildOptions(
            retries=0, checkpoint_dir=tmp_path / "snaps",
            checkpoint_every="1"))
        assert not run.ok
        assert run.failure.kind == "crash"
        assert run.failure.attempts == 1

    def test_successful_cell_discards_snapshots(self, tmp_path):
        planned = _planned_cc()
        key = run_cache_key(planned, TINY)
        snap_dir = tmp_path / "snaps"
        run = execute_planned_run(planned, TINY, None, BuildOptions(
            checkpoint_dir=snap_dir, checkpoint_every="1"))
        assert run.ok
        assert SnapshotStore(snap_dir).load_latest(key) is None


# ----------------------------------------------------------------------
# Chaos harness: random SIGKILLs mid-build, corpus still converges
# ----------------------------------------------------------------------
class TestChaosKills:
    def test_corpus_survives_random_worker_sigkills(self, tmp_path,
                                                    monkeypatch):
        """SIGKILL corpus workers at random iterations; repeated
        resumed builds must complete the corpus with vectors exactly
        matching an undisturbed build — and leak no shared-memory
        segments (workers only attach; the parent owns every name)."""
        import glob

        pre_segments = set(glob.glob("/dev/shm/repro-shm-*"))
        clean = build_corpus(TINY, store=ResultStore(tmp_path / "clean"),
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
        snap_dir = tmp_path / "chaos-snaps"
        corpus = None
        for _attempt in range(n_tokens + 3):
            corpus = build_corpus(TINY, store=store, workers=2,
                                  options=BuildOptions(
                                      resume=True, retries=0,
                                      checkpoint_dir=snap_dir,
                                      checkpoint_every="1"))
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


# ----------------------------------------------------------------------
# CLI integration (run --checkpoint-*)
# ----------------------------------------------------------------------
class TestRunCheckpointCli:
    def test_kill_resume_via_cli(self, tmp_path):
        """`repro run --checkpoint-every` + `--from-checkpoint` resumes
        across real process deaths (the injected kill aborts the first
        process with a traceback; the second resumes and completes)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        spec_args = ["run", "cc", "--nedges", "500", "--seed", "4",
                     "--checkpoint-every", "1",
                     "--checkpoint-dir", str(tmp_path)]
        env[INJECT_KILL_ENV] = "cc-:2"
        first = subprocess.run(
            [sys.executable, "-m", "repro", *spec_args],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        assert first.returncode != 0
        assert "SimulatedKillError" in first.stderr

        env.pop(INJECT_KILL_ENV)
        second = subprocess.run(
            [sys.executable, "-m", "repro", *spec_args,
             "--from-checkpoint"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        assert second.returncode == 0, second.stderr
        assert "resumed from checkpoint at iteration 3" in second.stdout

        # And the resumed trace equals an uninterrupted run's.
        base = run_computation("cc", GraphSpec.ga(nedges=500, alpha=2.5,
                                                  seed=4))
        assert f"iterations={base.n_iterations} " in second.stdout


# ----------------------------------------------------------------------
# Graceful SIGINT for `repro corpus`
# ----------------------------------------------------------------------
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
