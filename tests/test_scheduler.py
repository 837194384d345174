"""Supervised DAG scheduler tests: the task-board state machine
(unit + hypothesis property), the per-worker pipes, lease expiry /
re-dispatch, poison-cell quarantine (cells that hang or kill every
worker), quarantine GC, and the scheduler CLI flags.

The board tests are pure (injected clocks, no processes); the
integration tests spawn a real worker crew and drive the hung-worker
failure mode through ``REPRO_INJECT_STALL``.
"""

import glob
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import RunTimeoutError
from repro.behavior.run import INJECT_SLEEP_ENV, run_computation
from repro.experiments import scheduler
from repro.experiments.config import BuildOptions, ExperimentMatrix, Profile
from repro.experiments.corpus import (
    BehaviorCorpus,
    build_corpus,
    execute_planned_run,
    run_cache_key,
)
from repro.experiments.failures import RunFailure, full_jitter_backoff
from repro.experiments.results import ResultStore
from repro.experiments.scheduler import (
    _ALLOWED_TRANSITIONS,
    SchedulerError,
    Supervisor,
    Task,
    TaskBoard,
)
from repro.experiments.worksite import (
    INJECT_STALL_ENV,
    INJECT_STALL_TOKENS_ENV,
    WorkerCrew,
    WorkerHandle,
)
from tests.conftest import REPO_ROOT

#: Tiny profile so supervised builds finish in seconds.
SCHED_PROFILE = Profile(
    name="sched",
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

#: Substring of one cell's task id (``run:<profile>-<alg>-<spec key>``)
#: that matches neither that spec's materialize task nor other cells.
STALL_TARGET = "cc-ga-ne200-a2.0"


def _board(**kwargs) -> TaskBoard:
    kwargs.setdefault("lease_timeout_s", 1.0)
    kwargs.setdefault("backoff_base_s", 0.0)
    return TaskBoard(**kwargs)


def _plan_for(algorithms) -> list:
    matrix = ExperimentMatrix(SCHED_PROFILE)
    return [p for p in matrix.corpus_runs() if p.algorithm in algorithms]


def _supervise(plan, store, corpus, monkeypatch, **options) -> None:
    """One supervised 2-worker build with per-process graphs (no shm
    plane) and no retries."""
    monkeypatch.setattr(scheduler.CrewLoop, "_plane_wanted",
                        lambda self: False)
    Supervisor(plan=plan, profile=SCHED_PROFILE, store=store,
               corpus=corpus, workers=2,
               options=BuildOptions(retries=0, **options)).run()


# ----------------------------------------------------------------------
# TaskBoard: the pure state machine
# ----------------------------------------------------------------------
class TestTaskBoard:
    def test_duplicate_and_unknown_dep_rejected(self):
        board = _board()
        board.add(Task("a", "run"))
        with pytest.raises(SchedulerError):
            board.add(Task("a", "run"))
        with pytest.raises(SchedulerError):
            board.add(Task("b", "run", deps=("missing",)))

    def test_ready_gates_on_deps_and_backoff(self):
        board = _board()
        board.add(Task("mat", "materialize"))
        board.add(Task("r1", "run", deps=("mat",)))
        late = board.add(Task("r2", "run"))
        late.not_before = 5.0
        assert [t.id for t in board.ready(0.0)] == ["mat"]
        epoch = board.lease("mat", 0, 0.0)
        board.complete("mat", None)
        assert epoch == 1
        # Dep terminal -> r1 dispatchable; r2 still behind its backoff.
        assert [t.id for t in board.ready(1.0)] == ["r1"]
        assert [t.id for t in board.ready(5.0)] == ["r1", "r2"]

    def test_deps_are_ordering_not_success_edges(self):
        board = _board()
        board.add(Task("mat", "materialize"))
        board.add(Task("r", "run", deps=("mat",)))
        epoch = board.lease("mat", 0, 0.0)
        board.fail("mat", epoch, RunFailure(kind="crash", message="boom"))
        # A failed materialize leaves its cells runnable.
        assert [t.id for t in board.ready(1.0)] == ["r"]

    def test_lease_complete_lifecycle(self):
        board = _board()
        task = board.add(Task("r", "run"))
        epoch = board.lease("r", 3, 10.0)
        assert task.status == "leased"
        assert (task.lease.worker, task.lease.epoch) == (3, epoch)
        assert task.lease.deadline == pytest.approx(11.0)
        assert board.complete("r", "payload")
        assert task.status == "done" and task.result == "payload"
        assert task.lease is None
        with pytest.raises(SchedulerError):
            board.lease("r", 0, 12.0)  # terminal states are final

    def test_complete_is_first_wins(self):
        board = _board()
        board.add(Task("r", "run"))
        board.lease("r", 0, 0.0)
        assert board.complete("r", "first")
        assert not board.complete("r", "second")
        assert board.get("r").result == "first"

    def test_late_completion_of_requeued_task_is_accepted(self):
        """A revoked lease's worker finishing late is still a valid
        answer (byte-identical store write), so a pending task may be
        completed — through a supervisor re-own, never pending->done."""
        board = _board()
        task = board.add(Task("r", "run"))
        board.lease("r", 0, 0.0)
        assert board.revoke_lease(task, task.lease, 2.0) == "requeued"
        assert task.status == "pending"
        assert board.complete("r", "late-but-right")
        assert task.status == "done"

    def test_renew_pushes_deadline_stale_beats_ignored(self):
        board = _board(lease_timeout_s=2.0)
        task = board.add(Task("r", "run"))
        epoch = board.lease("r", 1, 0.0)
        assert board.renew(1, "r", epoch, ts=1.5)
        assert task.lease.deadline == pytest.approx(3.5)
        # A renewal can only extend, never shorten.
        assert board.renew(1, "r", epoch, ts=0.1)
        assert task.lease.deadline == pytest.approx(3.5)
        assert not board.renew(1, "r", epoch + 7, ts=9.0)  # stale epoch
        assert not board.renew(2, "r", epoch, ts=9.0)      # wrong worker
        assert not board.renew(1, "missing", epoch, ts=9.0)

    def test_expiry_requeues_with_jitter_backoff(self):
        board = _board(backoff_base_s=0.5)
        task = board.add(Task("r", "run"))
        epoch = board.lease("r", 0, 0.0)
        assert board.expired_leases(0.5) == []
        [(expired_task, lease)] = board.expired_leases(1.5)
        assert expired_task is task and lease.epoch == epoch
        assert board.revoke_lease(task, lease, 1.5) == "requeued"
        assert task.status == "pending"
        assert task.lease_expiries == 1
        assert task.failure.kind == "lease-expired"
        expected = full_jitter_backoff(0.5, 1, key="r",
                                       cap_s=scheduler.BACKOFF_CAP_S)
        assert task.not_before == pytest.approx(1.5 + expected)
        assert board.total_lease_expiries == 1

    def test_quarantine_after_exactly_k_expiries(self):
        board = _board(max_lease_expiries=2)
        task = board.add(Task("r", "run"))
        for attempt in range(2):
            board.lease("r", attempt, float(attempt))
            outcome = board.revoke_lease(task, task.lease,
                                         float(attempt) + 2)
        assert outcome == "quarantined"
        assert task.status == "quarantined"
        assert task.lease_expiries == 2
        assert task.failure.kind == "quarantined-poison"
        with pytest.raises(SchedulerError):
            board.lease("r", 9, 99.0)
        assert not board.complete("r", "too-late")

    def test_fail_requires_live_epoch(self):
        board = _board()
        task = board.add(Task("r", "run"))
        epoch = board.lease("r", 0, 0.0)
        board.revoke_lease(task, task.lease, 2.0)
        # The revoked attempt's failure report is stale: dropped.
        assert not board.fail("r", epoch, RunFailure(kind="crash",
                                                     message="stale"))
        assert task.status == "pending"
        epoch2 = board.lease("r", 1, 2.0)
        assert board.fail("r", epoch2, RunFailure(kind="crash",
                                                  message="live"))
        assert task.status == "failed"
        assert task.failure.message == "live"

    def test_revoking_a_lease_the_task_no_longer_holds_is_stale(self):
        board = _board()
        task = board.add(Task("r", "run"))
        board.lease("r", 0, 0.0)
        old = task.lease
        board.revoke_lease(task, old, 2.0)
        board.lease("r", 1, 2.0)
        # The replacement's lease is untouched by the old one's expiry.
        assert board.revoke_lease(task, old, 3.0) == "stale"
        assert task.status == "leased" and task.lease.worker == 1
        assert task.lease_expiries == 1

    def test_transitions_are_observable_and_legal(self):
        seen = []
        board = _board(
            on_transition=lambda t, old, new, info: seen.append((old, new)))
        task = board.add(Task("r", "run"))
        board.lease("r", 0, 0.0)
        board.revoke_lease(task, task.lease, 2.0)
        board.lease("r", 1, 2.0)
        board.complete("r", "v")
        assert seen == [("pending", "leased"), ("leased", "pending"),
                        ("pending", "leased"), ("leased", "done")]
        for old, new in seen:
            assert new in _ALLOWED_TRANSITIONS[old]

    def test_counts(self):
        board = _board()
        board.add(Task("a", "run"))
        board.add(Task("b", "run"))
        board.lease("a", 0, 0.0)
        board.complete("a", None)
        statuses = sorted(t.status for t in board.tasks.values())
        assert statuses == ["done", "pending"]
        assert not board.all_terminal()


# ----------------------------------------------------------------------
# Property test: every task terminates under random kills/stalls
# ----------------------------------------------------------------------
class TestTaskBoardProperty:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_task_reaches_a_terminal_state(self, data):
        """Drive a random DAG through a random schedule of leases,
        completions, failures, renewals, and worker kills (revocations),
        then let a draining supervisor loop run: every task must land
        in a terminal state, via legal transitions only, with the
        poison budget exactly enforced."""
        k = data.draw(st.integers(1, 3), label="max_lease_expiries")
        transitions = []
        board = TaskBoard(
            lease_timeout_s=10.0, max_lease_expiries=k,
            backoff_base_s=0.0,
            on_transition=lambda t, old, new, info:
                transitions.append((t.id, old, new)))
        ids = []
        for i in range(data.draw(st.integers(1, 6), label="n_tasks")):
            deps = (tuple(data.draw(
                st.sets(st.sampled_from(ids), max_size=2), label="deps"))
                if ids else ())
            board.add(Task(f"t{i}", "run", deps=deps))
            ids.append(f"t{i}")

        now = 0.0
        for _ in range(data.draw(st.integers(0, 30), label="n_events")):
            now += 1.0
            action = data.draw(st.sampled_from(
                ["lease", "complete", "fail", "kill", "renew"]),
                label="action")
            leased = board.leased()
            if action == "lease":
                ready = board.ready(now)
                if ready:
                    task = data.draw(st.sampled_from(ready))
                    board.lease(task.id,
                                data.draw(st.integers(0, 3)), now)
            elif action == "complete" and leased:
                board.complete(data.draw(st.sampled_from(leased)).id, "v")
            elif action == "fail" and leased:
                task = data.draw(st.sampled_from(leased))
                board.fail(task.id, task.lease.epoch,
                           RunFailure(kind="crash", message="x"))
            elif action == "kill" and leased:
                # SIGKILL / hard stall: the lease is lost, the task is
                # requeued or quarantined.
                task = data.draw(st.sampled_from(leased))
                board.revoke_lease(task, task.lease, now,
                                   reason="worker-died")
            elif action == "renew" and leased:
                task = data.draw(st.sampled_from(leased))
                board.renew(task.lease.worker, task.id,
                            task.lease.epoch, now)

        # Drain: what the supervisor's main loop guarantees — expired
        # leases are revoked, ready tasks are dispatched and finished.
        for _round in range(200):
            if board.all_terminal():
                break
            now += 1_000.0
            for task, lease in board.expired_leases(now):
                board.revoke_lease(task, lease, now)
            for task in board.ready(now):
                board.lease(task.id, 0, now)
                board.complete(task.id, "v")
        assert board.all_terminal()

        for task in board.tasks.values():
            assert task.lease_expiries <= k
            if task.status == "quarantined":
                assert task.lease_expiries == k
                assert task.failure.kind == "quarantined-poison"
        for _task_id, old, new in transitions:
            assert new in _ALLOWED_TRANSITIONS[old]


# ----------------------------------------------------------------------
# Backoff
# ----------------------------------------------------------------------
class TestFullJitterBackoff:
    def test_deterministic_per_key_and_attempt(self):
        a = full_jitter_backoff(0.1, 3, key="run:cc")
        assert a == full_jitter_backoff(0.1, 3, key="run:cc")
        draws = {full_jitter_backoff(0.1, 3, key=f"run:{i}")
                 for i in range(16)}
        assert len(draws) > 1  # jitter actually varies across keys

    def test_bounded_by_exponential_ceiling_and_cap(self):
        for attempt in range(1, 8):
            value = full_jitter_backoff(0.2, attempt, key="x", cap_s=1.5)
            assert 0.0 <= value <= min(1.5, 0.2 * 2 ** (attempt - 1))

    def test_disabled_cases(self):
        assert full_jitter_backoff(0.0, 3, key="x") == 0.0
        assert full_jitter_backoff(0.5, 0, key="x") == 0.0


# ----------------------------------------------------------------------
# Crew heartbeats: one shared (epoch, time) array per worker
# ----------------------------------------------------------------------
class TestCrewBeats:
    def test_a_beat_of_an_older_epoch_renews_nothing(self):
        """Board epochs are unique: a worker whose array still names
        its previous lease cannot keep the current one alive."""
        loop = scheduler.CrewLoop(
            options=BuildOptions(lease_timeout_s=1.0), profile=SCHED_PROFILE,
            workers=0, store_root=None, node=False)
        handle = WorkerHandle(0, None, None, multiprocessing.RawArray("d", 2))
        loop.crew.workers[0] = handle
        try:
            board = loop.board
            board.add(Task("old", "run"))
            old = board.lease("old", 0, now=100.0)
            board.complete("old", None)
            board.add(Task("cur", "run"))
            cur = board.lease("cur", 0, now=100.0)
            handle.task_id = "cur"

            handle.beat[:] = [old, 150.0]
            loop._renew_leases()
            assert board.get("cur").lease.deadline == 101.0
            assert board.expired_leases(102.0)

            handle.beat[:] = [cur, 150.0]
            loop._renew_leases()
            assert board.get("cur").lease.deadline == 151.0
        finally:
            loop.crew.workers.clear()
            loop.close()


class TestWorksite:
    def test_cleanup_removes_beats_and_directory(self):
        """Shutting a crew down reaps every worker and drops its beat
        array; the crew's liveness leaves no directory behind."""
        tmp = tempfile.gettempdir()

        def repro_dirs():
            return set(glob.glob(os.path.join(tmp, "repro-worksite-*")))

        before = repro_dirs()
        crew = WorkerCrew(2, 0.05, BuildOptions(), SCHED_PROFILE, None)
        handles = list(crew.workers.values())
        try:
            deadline = time.monotonic() + 10.0
            while (any(h.beat[1] == 0.0 for h in handles)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert all(h.beat[1] > 0.0 for h in handles)
        finally:
            crew.shutdown()
        assert crew.workers == {}
        assert crew.idle_workers() == [] and crew.dead_workers() == []
        assert repro_dirs() == before

    def test_a_pipe_at_eof_or_cut_off_severs_its_worker(self):
        """Each worker has its own pipe: one that reaches EOF, or cuts
        its message off partway, marks that worker dead whatever its
        process says, and a whole message on a sibling's still
        arrives."""
        crew = WorkerCrew(0, 1.0, BuildOptions(), SCHED_PROFILE, None)
        running = SimpleNamespace(is_alive=lambda: True)
        theirs = []
        for worker in range(3):
            ours, end = multiprocessing.Pipe()
            crew.workers[worker] = WorkerHandle(worker, running, ours, None,
                                                task_id=f"run:{worker}")
            theirs.append(end)
        theirs[0].close()
        os.write(theirs[1].fileno(), struct.pack("!i", 100) + b"cut")
        theirs[1].close()
        theirs[2].send("result")
        try:
            assert crew.poll_results(1.0) == ["result"]
            assert {h.worker for h in crew.dead_workers()} == {0, 1}
            assert crew.idle_workers() == []
        finally:
            for handle in crew.workers.values():
                handle.conn.close()
            crew.workers.clear()
            theirs[2].close()


# ----------------------------------------------------------------------
# Quarantine GC (satellite: bounded retention, oldest-first sweep)
# ----------------------------------------------------------------------
class TestQuarantineGC:
    def _populate(self, qdir, n):
        qdir.mkdir(parents=True, exist_ok=True)
        import os

        for i in range(n):
            path = qdir / f"entry-{i}.json"
            path.write_text("{}", encoding="utf-8")
            os.utime(path, (i, i))  # strictly increasing mtimes

    def test_result_store_sweeps_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        self._populate(store.quarantine_dir, 6)
        assert store.gc_quarantine(2) == 4
        survivors = sorted(p.name for p in
                           store.quarantine_dir.glob("*.json"))
        assert survivors == ["entry-4.json", "entry-5.json"]
        assert store.gc_quarantine(2) == 0  # idempotent

    def test_result_store_gc_edge_cases(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.gc_quarantine(5) == 0  # no quarantine dir yet
        self._populate(store.quarantine_dir, 2)
        assert store.gc_quarantine(-1) == 0  # negative keep: no-op
        assert store.gc_quarantine(0) == 2  # keep nothing

    def test_quarantine_call_auto_sweeps(self, tmp_path, monkeypatch):
        import repro.experiments.results as results_mod

        monkeypatch.setattr(results_mod, "QUARANTINE_MAX_ENTRIES", 3)
        store = ResultStore(tmp_path)
        self._populate(store.quarantine_dir, 5)
        (tmp_path / "bad.json").write_text("not json", encoding="utf-8")
        assert store.quarantine(tmp_path / "bad.json") is not None
        assert store.n_quarantined() == 3


# ----------------------------------------------------------------------
# Materialize-phase wall-clock budget (satellite 1)
# ----------------------------------------------------------------------
class TestMaterializePhaseBudget:
    @staticmethod
    def _target_planned():
        return next(p for p in _plan_for({"cc"})
                    if STALL_TARGET in f"cc-{p.spec.cache_key()}")

    def test_sigalrm_timeout_names_the_materialize_phase(self, monkeypatch):
        planned = self._target_planned()
        monkeypatch.setenv(INJECT_SLEEP_ENV, f"{STALL_TARGET}:5")
        with pytest.raises(RunTimeoutError) as err:
            run_computation("cc", planned.spec, timeout_s=0.3)
        assert "(phase: materialize)" in str(err.value)

    def test_cooperative_fallback_also_covers_materialize(self, monkeypatch):
        """Off the main thread SIGALRM is unavailable; the cooperative
        deadline must still bound materialization (not grant the engine
        a fresh full budget afterwards)."""
        import warnings

        planned = self._target_planned()
        monkeypatch.setenv(INJECT_SLEEP_ENV, f"{STALL_TARGET}:5")
        caught = []

        def body():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    run_computation("cc", planned.spec, timeout_s=0.3)
            except RunTimeoutError as exc:
                caught.append(exc)
            except Exception:  # pragma: no cover - diagnosis aid
                pass

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=30)
        assert caught, "cooperative deadline never fired"
        message = str(caught[0])
        assert "(phase: materialize)" in message
        assert "cooperative" in message


# ----------------------------------------------------------------------
# Integration: real crews, injected stalls
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def clean_corpus():
    """Undisturbed inline build of the module profile, for vector
    comparisons."""
    return build_corpus(SCHED_PROFILE, use_cache=False, workers=1)


class TestLeaseExpiryIntegration:
    def test_stalled_worker_is_revoked_and_build_is_bit_identical(
            self, tmp_path, monkeypatch, clean_corpus):
        """A worker that hangs (stops heartbeating) on one cell loses
        its lease; the cell is re-dispatched and the finished corpus is
        bit-identical to an undisturbed build, with the expiry visible
        in telemetry."""
        token_dir = tmp_path / "stall-tokens"
        token_dir.mkdir()
        (token_dir / "token-0").touch()
        monkeypatch.setenv(INJECT_STALL_ENV, f"{STALL_TARGET}:30")
        monkeypatch.setenv(INJECT_STALL_TOKENS_ENV, str(token_dir))
        obs_dir = tmp_path / "obs"
        corpus = build_corpus(
            SCHED_PROFILE, store=ResultStore(tmp_path / "cache"),
            workers=2, options=BuildOptions(lease_timeout_s=1.5),
            obs="full", obs_dir=obs_dir)
        assert not list(token_dir.iterdir()), \
            "the stall never fired — the harness tested nothing"
        assert corpus.lease_expiries >= 1
        assert corpus.workers_replaced >= 1
        assert not corpus.unexpected_failures, \
            [str(f.failure) for f in corpus.failures]

        expected = [(v.tag, v.as_array().tolist())
                    for v in clean_corpus.vectors()]
        actual = [(v.tag, v.as_array().tolist()) for v in corpus.vectors()]
        assert actual == expected  # order and content

        events = "".join(p.read_text(encoding="utf-8")
                         for p in obs_dir.rglob("*.jsonl"))
        assert '"lease-expired"' in events
        assert '"task"' in events  # per-transition events present

    def test_stopped_worker_is_revoked_killed_and_replaced(
            self, tmp_path, monkeypatch, clean_corpus):
        """The hang a beat exists for: SIGSTOP a real worker in the
        middle of a cell. Its beat time stops advancing, the lease
        expires, the worker is SIGKILLed and replaced, and the cell is
        re-dispatched — the corpus is bit-identical. (The cell sleeps
        past the lease timeout, so the worker is stopped inside it,
        never while it hands back a result; the re-dispatched attempt
        sleeps as long, beating, and keeps its lease.)"""
        monkeypatch.setenv(INJECT_SLEEP_ENV, f"{STALL_TARGET}:2.0")
        stopped: "list[int]" = []
        exit_codes: "dict[int, int | None]" = {}

        def on_dispatched(loop, task):
            if (task.kind != "run" or STALL_TARGET not in task.id
                    or stopped):
                return
            handle = loop.crew.workers[task.lease.worker]
            deadline = time.monotonic() + 10.0
            while (handle.beat[0] != task.lease.epoch
                   and time.monotonic() < deadline):
                time.sleep(0.005)  # until the worker holds the envelope
            os.kill(handle.process.pid, signal.SIGSTOP)
            stopped.append(handle.process.pid)

        real_close = WorkerCrew._close

        def close(crew, handle):
            exit_codes[handle.process.pid] = handle.process.exitcode
            real_close(crew, handle)

        monkeypatch.setattr(scheduler.CrewLoop, "_on_dispatched",
                            on_dispatched)
        monkeypatch.setattr(WorkerCrew, "_close", close)
        corpus = build_corpus(
            SCHED_PROFILE, store=ResultStore(tmp_path / "cache"),
            workers=2, options=BuildOptions(lease_timeout_s=1.5))
        assert stopped, "the target cell was never dispatched"
        assert exit_codes[stopped[0]] == -signal.SIGKILL
        assert corpus.lease_expiries >= 1
        assert corpus.workers_replaced >= 1
        assert not corpus.unexpected_failures, \
            [str(f.failure) for f in corpus.failures]
        expected = [(v.tag, v.as_array().tolist())
                    for v in clean_corpus.vectors()]
        actual = [(v.tag, v.as_array().tolist()) for v in corpus.vectors()]
        assert actual == expected

    def test_no_heartbeat_litter_after_build(self, tmp_path, monkeypatch):
        """Crew liveness touches no file: no worksite directory and no
        beat file appear, while the crew runs or after the build."""
        tmp = tempfile.gettempdir()

        def liveness_paths():
            return (set(glob.glob(os.path.join(tmp, "repro-worksite-*")))
                    | set(glob.glob(os.path.join(tmp, "*", "hb-*")))
                    | set(tmp_path.rglob("hb-*")))

        before, seen = liveness_paths(), set()
        real_tick = scheduler.CrewLoop.tick

        def tick(loop, now, wait_s=0.0):
            seen.update(liveness_paths() - before)
            real_tick(loop, now, wait_s)

        monkeypatch.setattr(scheduler.CrewLoop, "tick", tick)
        build_corpus(SCHED_PROFILE, store=ResultStore(tmp_path / "cache"),
                     workers=2)
        seen.update(liveness_paths() - before)
        assert not seen, f"liveness files: {sorted(seen)}"


class TestPoisonQuarantine:
    def test_poison_cell_quarantined_after_k_expiries(self, tmp_path,
                                                      monkeypatch):
        """A cell that hangs every worker that touches it (unbounded
        stall injection) is quarantined after K lost leases instead of
        hanging or aborting the build; the verdict is persisted as a
        non-retryable failure."""
        monkeypatch.setenv(INJECT_STALL_ENV, f"{STALL_TARGET}:60")
        monkeypatch.delenv(INJECT_STALL_TOKENS_ENV, raising=False)
        store = ResultStore(tmp_path / "cache")
        plan = _plan_for({"cc"})
        corpus = BehaviorCorpus(profile=SCHED_PROFILE)
        started = time.perf_counter()
        _supervise(plan, store, corpus, monkeypatch, lease_timeout_s=0.8,
                   max_lease_expiries=2)
        elapsed = time.perf_counter() - started
        assert elapsed < 60, "the poison cell hung the build"

        poisoned = [f for f in corpus.failures
                    if f.failure.kind == "quarantined-poison"]
        assert len(poisoned) == 1
        assert STALL_TARGET in run_cache_key(
            next(p for p in plan
                 if p.algorithm == poisoned[0].algorithm
                 and p.spec == poisoned[0].spec), SCHED_PROFILE)
        assert corpus.lease_expiries >= 2
        # The healthy siblings completed despite the poison.
        assert len(corpus.runs) == len(plan) - 1
        # quarantined-poison exits 3 through the unexpected-failure
        # path: it is neither expected nor retryable.
        assert poisoned[0] in corpus.unexpected_failures
        assert not poisoned[0].failure.retryable

        # The verdict is persisted: a replayed build consumes it from
        # the cache instead of feeding the cell to a fresh crew.
        target = next(p for p in plan
                      if STALL_TARGET in run_cache_key(p, SCHED_PROFILE))
        key = run_cache_key(target, SCHED_PROFILE)
        assert store.load_failure(key).kind == "quarantined-poison"
        monkeypatch.delenv(INJECT_STALL_ENV)
        replayed = execute_planned_run(target, SCHED_PROFILE, store)
        assert replayed.source == "cache"
        assert replayed.failure.kind == "quarantined-poison"


#: Every cell on this graph (6 of them) SIGKILLs whatever process runs it.
KILLER_GRAPH = "ga-ne600-a2.0"

#: ``python -c _KILLER_BUILD <supervised|distributed> <dir> <graph>``:
#: one 2-worker build of the module profile (a distributed one with no
#: peers) in which ``_maybe_inject_fault``, patched before the crew
#: forks, kills the process running any cell on *graph*; prints the
#: outcome as JSON.
_KILLER_BUILD = """
import json, os, signal, sys
from repro.behavior import run
from repro.experiments.config import BuildOptions
from repro.experiments.corpus import build_corpus
from repro.experiments.results import ResultStore
from tests.test_scheduler import SCHED_PROFILE

mode, root, graph = sys.argv[1:4]
inject = run._maybe_inject_fault

def kill_on_sight(run_key):
    if graph in run_key:
        os.kill(os.getpid(), signal.SIGKILL)
    inject(run_key)

run._maybe_inject_fault = kill_on_sight
corpus = build_corpus(
    SCHED_PROFILE, store=ResultStore(os.path.join(root, "store")),
    workers=2, options=BuildOptions(retries=0, lease_timeout_s=5.0),
    distributed=(os.path.join(root, "queue")
                 if mode == "distributed" else None))
print(json.dumps({
    "failed": sorted([f.tag, f.failure.kind] for f in corpus.failures),
    "workers_replaced": corpus.workers_replaced,
    "summary": corpus.summary(),
    "vectors": [[v.tag, v.as_array().tolist()] for v in corpus.vectors()],
}))
"""


class TestCellsThatKillTheirWorker:
    """The one failure rule under cells that kill whatever runs them:
    each costs its own poison budget in worker deaths and is
    quarantined, and nothing else is lost. Each build runs in a
    subprocess under a 60 s timeout, so a build that hangs fails here
    instead of wedging the suite, and one whose own process is killed
    fails on its exit code."""

    @pytest.fixture(scope="class")
    def expected(self, clean_corpus):
        """The killer cells' quarantine verdicts, and the inline
        build's vectors over every other cell."""
        killers, survivors = [], []
        for cell in clean_corpus.runs:
            if KILLER_GRAPH in run_cache_key(cell, SCHED_PROFILE):
                killers.append([list(cell.tag), "quarantined-poison"])
            else:
                survivors.append(cell)
        vectors = BehaviorCorpus(profile=SCHED_PROFILE,
                                 runs=survivors).vectors()
        return sorted(killers), [[list(v.tag), v.as_array().tolist()]
                                 for v in vectors]

    @pytest.mark.parametrize("attempt", range(5))
    @pytest.mark.parametrize("mode", ["supervised", "distributed"])
    def test_killer_cells_are_quarantined_and_the_rest_is_identical(
            self, tmp_path, mode, attempt, expected):
        killers, vectors = expected
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]))
        proc = subprocess.run(
            [sys.executable, "-c", _KILLER_BUILD, mode, str(tmp_path),
             KILLER_GRAPH],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        out = json.loads(proc.stdout)
        assert len(killers) == 6
        assert out["failed"] == killers
        assert out["workers_replaced"] >= 18, out["summary"]
        assert (f"{out['workers_replaced']} workers replaced"
                in out["summary"])
        assert out["vectors"] == vectors


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCliFlags:
    def test_scheduler_flags_forward_to_build_corpus(self, capsys,
                                                     monkeypatch):
        import repro.experiments.corpus as corpus_mod
        from repro.cli import main

        captured = {}

        def fake_build(profile=None, **kwargs):
            captured.update(kwargs)
            return BehaviorCorpus(profile=SCHED_PROFILE)

        monkeypatch.setattr(corpus_mod, "build_corpus", fake_build)
        code = main(["corpus", "--workers", "4",
                     "--lease-timeout", "2.5",
                     "--max-lease-expiries", "5"])
        capsys.readouterr()
        assert code == 0
        assert captured["workers"] == 4
        assert captured["options"] == BuildOptions(
            lease_timeout_s=2.5, max_lease_expiries=5)

    def test_scheduler_flags_default_to_none(self, capsys, monkeypatch):
        import repro.experiments.corpus as corpus_mod
        from repro.cli import main

        captured = {}

        def fake_build(profile=None, **kwargs):
            captured.update(kwargs)
            return BehaviorCorpus(profile=SCHED_PROFILE)

        monkeypatch.setattr(corpus_mod, "build_corpus", fake_build)
        assert main(["corpus"]) == 0
        capsys.readouterr()
        assert captured["options"] == BuildOptions()
        assert captured["options"].lease_timeout_s is None
