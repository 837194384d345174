"""Distributed work-queue protocol tests.

Covers the filesystem protocol primitives (content-addressed task
records, atomic rename claims, epoch fences, done markers, node
beats), the fence-checked publish gate, and two end-to-end
coordinator builds: a clean one that must be bit-identical with an
inline build, and a ghost-node build where a fake peer's abandoned
claim must be fenced, requeued, and completed by someone else.

The full chaos matrix (SIGKILLed agent + frozen-then-woken zombie
across real processes) lives in ``scripts/distributed_smoke.py``.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.experiments.config import (
    BuildOptions,
    GraphSpec,
    PlannedRun,
    Profile,
)
from repro.experiments import distqueue, nodeagent
from repro.experiments.corpus import (
    BehaviorCorpus,
    ExperimentMatrix,
    build_corpus,
    run_cache_key,
)
from repro.experiments.distqueue import (
    Coordinator,
    DistributedQueue,
    NodeBeat,
    TaskRecord,
    build_manifest,
    parse_manifest,
    profile_from_dict,
    profile_to_dict,
    publish_result,
)
from repro.experiments.failures import RunFailure
from repro.experiments.results import ResultStore
from repro.experiments.scheduler import POLL_S
from repro.experiments.worksite import HeartbeatWriter
from repro.obs.events import node_sink_path, read_events

DQ_PROFILE = Profile(
    name="dq-test",
    ga_sizes=(200,),
    cf_sizes=(80,),
    matrix_rows=(16,),
    grid_sides=(8,),
    mrf_edges=(40,),
    alphas=(2.0,),
    ad_n_hashes=16,
    coverage_samples=100,
    seed=5,
)


def _record(key: str = "cell-a", algorithm: str = "bfs") -> TaskRecord:
    return TaskRecord(cell_key=key, algorithm=algorithm,
                      spec=GraphSpec(domain="ga", nedges=200, alpha=2.0,
                                     nrows=None, seed=5))


def _queue(tmp_path) -> DistributedQueue:
    queue = DistributedQueue(tmp_path / "queue")
    queue.ensure_layout()
    return queue


class _FakeRun:
    def __init__(self, trace=None, failure=None):
        self.trace = trace
        self.failure = failure
        self.ok = failure is None


class _FakeStore:
    def __init__(self):
        self.saved = []
        self.failures = []

    def save(self, key, trace):
        self.saved.append(key)

    def save_failure(self, key, failure):
        self.failures.append(key)


class TestTaskRecord:
    def test_roundtrip(self):
        record = _record()
        again = TaskRecord.from_dict(record.to_dict())
        assert again == record
        assert again.task_id == record.task_id

    def test_task_id_is_content_addressed(self):
        a, b = _record(), _record()
        assert a.task_id == b.task_id
        assert _record(algorithm="dfs").task_id != a.task_id
        assert _record(key="cell-b").task_id != a.task_id

    def test_task_id_is_filesystem_safe(self):
        record = _record(key="ga/bfs α=2.0:n=200")
        assert "/" not in record.task_id
        assert "@" not in record.task_id

    def test_planned_roundtrip(self):
        planned = PlannedRun("bfs", GraphSpec(domain="ga", nedges=200,
                                              alpha=2.0, nrows=None,
                                              seed=5))
        record = TaskRecord.for_planned(planned, DQ_PROFILE)
        assert record.planned == planned


class TestProfileTransport:
    def test_roundtrip(self):
        again = profile_from_dict(profile_to_dict(DQ_PROFILE))
        assert again == DQ_PROFILE

    def test_roundtrip_through_json(self):
        wire = json.loads(json.dumps(profile_to_dict(DQ_PROFILE)))
        assert profile_from_dict(wire) == DQ_PROFILE


class TestManifestTransport:
    OPTIONS = BuildOptions(timeout_s=2.5, retries=1, resume=True,
                           health_policy="degrade", obs_level="full",
                           obs_dir="obs", run_id="r-1",
                           lease_timeout_s=0.5, max_lease_expiries=2)

    def test_options_roundtrip_through_json(self):
        for options in (BuildOptions(), self.OPTIONS):
            wire = json.loads(json.dumps(options.to_dict()))
            assert BuildOptions.from_dict(wire) == options

    def test_unknown_or_missing_option_is_refused(self):
        wire = self.OPTIONS.to_dict()
        with pytest.raises(ValueError, match="unknown keys.*'turbo'"):
            BuildOptions.from_dict({**wire, "turbo": True})
        del wire["resume"]
        with pytest.raises(ValueError, match="missing keys.*'resume'"):
            BuildOptions.from_dict(wire)

    def test_explicit_zero_is_refused_not_defaulted(self):
        # None means "the default"; 0 used to mean it too, silently.
        with pytest.raises(ValueError, match="lease_timeout_s"):
            BuildOptions(lease_timeout_s=0)
        with pytest.raises(ValueError, match="max_lease_expiries"):
            BuildOptions(max_lease_expiries=0)
        for seconds in (0, -1.0):
            with pytest.raises(ValueError, match="timeout_s"):
                BuildOptions(timeout_s=seconds)
        with pytest.raises(ValueError, match="retries"):
            BuildOptions(retries=-1)
        # Values that used to pass here and then fail every cell of the
        # build (a crash per cell) are refused up front too.
        with pytest.raises(ValueError, match="health_policy"):
            BuildOptions(health_policy="bogus")
        for seconds in (0, -0.5):
            with pytest.raises(ValueError, match="lease_timeout_s"):
                BuildOptions(lease_timeout_s=seconds)
        assert BuildOptions(retries=0, health_policy="degrade",
                            lease_timeout_s=0.5).retries == 0
        assert BuildOptions().lease_timeout(node=False) == 60.0
        assert BuildOptions().lease_timeout(node=True) == 15.0
        assert BuildOptions().max_lease_expiries == 3

    def test_manifest_roundtrip_through_the_queue(self, tmp_path):
        queue = _queue(tmp_path)
        trace = {"trace": "t", "span": "s"}
        queue.write_manifest(build_manifest(
            self.OPTIONS, DQ_PROFILE, tmp_path / "store", trace))
        options, profile, store_root, got = parse_manifest(
            queue.read_manifest())
        assert (options, profile, got) == (self.OPTIONS, DQ_PROFILE, trace)
        assert store_root == str((tmp_path / "store").resolve())

    def test_a_manifest_of_another_version_is_refused_at_once(
            self, tmp_path, capsys):
        """A node does not wait out ``--manifest-wait`` on a manifest it
        can never read: it exits at once, naming both versions."""
        queue = _queue(tmp_path)
        other = distqueue.QUEUE_VERSION - 1
        queue.write_manifest({**build_manifest(
            BuildOptions(), DQ_PROFILE, tmp_path, None), "version": other})
        started = time.monotonic()
        assert nodeagent.NodeAgent.serve(queue, manifest_wait_s=60) == 1
        assert time.monotonic() - started < 10
        err = capsys.readouterr().err
        assert f"version {other}" in err
        assert f"version {distqueue.QUEUE_VERSION}" in err

    def test_a_manifest_that_never_appears_is_reported(self, tmp_path,
                                                       capsys):
        queue = _queue(tmp_path)
        assert nodeagent.NodeAgent.serve(queue, manifest_wait_s=0.2) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no build manifest appeared within 0.2s" in err

    def test_malformed_manifest_is_a_clear_error(self, tmp_path):
        manifest = build_manifest(BuildOptions(), DQ_PROFILE,
                                  tmp_path, None)
        for broken in ({k: v for k, v in manifest.items()
                        if k != "store_root"},
                       {**manifest, "backoff_base_s": 0.05}):
            with pytest.raises(ValueError):
                parse_manifest(broken)


class TestQueueBasics:
    def test_publish_and_pending(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        assert queue.publish(record)
        assert queue.pending() == [record.task_id]
        assert queue.read_task(record.task_id) == record

    def test_publish_deduplicates_across_pipeline_stages(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        assert queue.publish(record)
        assert not queue.publish(record)  # pending
        assert queue.take(record.task_id, "n1", 1) is not None
        assert not queue.publish(record)  # claimed
        queue.mark_done(record.task_id, {"status": "ok", "node": "n1",
                                         "epoch": 1})
        for claim in queue.claims():
            queue.drop_claim(claim)
        assert not queue.publish(record)  # done

    def test_pending_is_sorted(self, tmp_path):
        queue = _queue(tmp_path)
        ids = []
        for key in ("zz", "aa", "mm"):
            record = _record(key=key)
            queue.publish(record)
            ids.append(record.task_id)
        assert queue.pending() == sorted(ids)


class TestClaims:
    def test_claim_returns_record_and_parses_back(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        queue.publish(record)
        got = queue.take(record.task_id, "node-1", 3)
        assert got.record == record
        assert queue.pending() == []
        (claim,) = queue.claims()
        assert (claim.task_id, claim.node, claim.epoch) == (
            record.task_id, "node-1", 3)

    def test_take_returns_the_claim_it_created(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        queue.publish(record)
        claim = queue.take(record.task_id, "node-1", 3)
        assert claim.record == record
        (listed,) = queue.claims()
        assert (claim.task_id, claim.node, claim.epoch, claim.path) == (
            listed.task_id, listed.node, listed.epoch, listed.path)
        assert queue.take(record.task_id, "node-2", 1) is None

    def test_concurrent_claimants_get_exactly_one_winner(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        queue.publish(record)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda i: queue.take(record.task_id, f"node-{i}", 1),
                range(8)))
        assert sum(r is not None for r in results) == 1
        assert len(queue.claims()) == 1

    def test_release_requeues_and_reports_races(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        queue.publish(record)
        queue.take(record.task_id, "n1", 1)
        (claim,) = queue.claims()
        assert queue.release(claim)
        assert queue.pending() == [record.task_id]
        assert not queue.release(claim)  # already released

    def test_drop_claim_is_idempotent(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        queue.publish(record)
        queue.take(record.task_id, "n1", 1)
        (claim,) = queue.claims()
        queue.drop_claim(claim)
        queue.drop_claim(claim)
        assert queue.claims() == []


class TestFences:
    def test_fence_floor_is_monotonic(self, tmp_path):
        queue = _queue(tmp_path)
        assert queue.fence_epoch("n1") == 0
        assert queue.raise_fence("n1", 5) == 5
        assert queue.raise_fence("n1", 3) == 5  # cannot lower
        assert queue.raise_fence("n1", 9) == 9

    def test_check_fence_boundary(self, tmp_path):
        queue = _queue(tmp_path)
        queue.raise_fence("n1", 4)
        assert not queue.check_fence("n1", 3)
        assert not queue.check_fence("n1", 4)  # at the floor == revoked
        assert queue.check_fence("n1", 5)
        assert queue.check_fence("other-node", 1)

    def test_check_fence_fails_closed_without_layout(self, tmp_path):
        # Never laid out, or already swept: no lease can be live. This
        # is what stops a zombie that slept past the whole build.
        queue = DistributedQueue(tmp_path / "never-created")
        assert not queue.check_fence("n1", 99)
        swept = _queue(tmp_path / "swept")
        swept.raise_fence("n1", 1)
        swept.sweep()
        assert not swept.check_fence("n1", 99)


class TestDoneMarkers:
    def test_mark_read_drop(self, tmp_path):
        queue = _queue(tmp_path)
        assert not queue.is_done("t1")
        queue.mark_done("t1", {"status": "ok", "node": "n1", "epoch": 2})
        assert queue.is_done("t1")
        marker = queue.read_done("t1")
        assert marker["status"] == "ok" and marker["epoch"] == 2
        queue.drop_done("t1")
        assert not queue.is_done("t1")


class TestBeats:
    def test_roundtrip_with_host_and_stale_count(self, tmp_path):
        queue = _queue(tmp_path)
        queue.write_beat("n1", {"epoch": 7, "tasks": ["t1"],
                                "stale_rejections": 2,
                                "segments": ["repro-shm-x"],
                                "done": False})
        beat = queue.read_beats()["n1"]
        assert beat.epoch == 7
        assert beat.stale_rejections == 2
        assert beat.segments == ("repro-shm-x",)
        assert beat.host  # stamped by write_beat
        assert not beat.done
        assert beat.age_s < 5.0

    def test_provably_dead_only_for_local_dead_pids(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        import socket

        dead = NodeBeat(node="n1", pid=proc.pid, ts=time.time(),
                        epoch=1, tasks=(), stale_rejections=0,
                        segments=(), done=False,
                        host=socket.gethostname())
        alive = NodeBeat(node="n2", pid=os.getpid(), ts=time.time(),
                         epoch=1, tasks=(), stale_rejections=0,
                         segments=(), done=False,
                         host=socket.gethostname())
        remote = NodeBeat(node="n3", pid=proc.pid, ts=time.time(),
                          epoch=1, tasks=(), stale_rejections=0,
                          segments=(), done=False, host="elsewhere")
        assert dead.provably_dead()
        assert not alive.provably_dead()
        assert not remote.provably_dead()  # partition-indistinguishable

    def test_drop_beat(self, tmp_path):
        queue = _queue(tmp_path)
        queue.write_beat("n1", {"epoch": 1})
        queue.drop_beat("n1")
        assert queue.read_beats() == {}

    def test_writer_publishes_through_its_callback(self, tmp_path):
        queue = _queue(tmp_path)
        writer = HeartbeatWriter(
            "n1", 0.5, lambda: queue.write_beat("n1", {"epoch": 7}))
        writer.beat()
        assert queue.read_beats()["n1"].epoch == 7

    def test_the_beat_is_a_tenth_of_the_lease(self):
        """The ≥10× rule is what the code does, at both levels: a crew
        default (60 s), a node default (15 s), the smokes' leases, and
        the floor for a lease too short to divide."""
        for lease, beat in ((60.0, 6.0), (15.0, 1.5), (2.5, 0.25),
                            (2.0, 0.2), (0.1, 0.05)):
            assert HeartbeatWriter("n", lease, lambda: None).every_s \
                == pytest.approx(beat)

    def test_torn_beat_files_are_skipped(self, tmp_path):
        queue = _queue(tmp_path)
        (queue.nodes_dir / "n0.json").write_text('{"node": "n0", "pid"',
                                                 encoding="utf-8")
        queue.write_beat("n1", {"epoch": 1})
        assert set(queue.read_beats()) == {"n1"}

    def test_suspend_models_a_hang(self, tmp_path):
        queue = _queue(tmp_path)
        writer = HeartbeatWriter(
            "n1", 0.5, lambda: queue.write_beat("n1", {"epoch": 1}))
        writer.start()
        try:
            writer.suspend()
            stale = queue.read_beats()["n1"].ts
            time.sleep(0.2)
            assert queue.read_beats()["n1"].ts == stale
            writer.resume()
            assert queue.read_beats()["n1"].ts > stale
        finally:
            writer.stop()

    def test_a_peer_beats_its_segments_before_it_goes_on(self, tmp_path,
                                                        monkeypatch):
        """A peer's beat carries its shm segment names to disk before
        the loop takes another step: a node SIGKILLed on its next task
        leaves the coordinator knowing what to unlink."""
        from repro.obs.telemetry import get_telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        queue = _queue(tmp_path)
        store = ResultStore(tmp_path / "store")
        records = [TaskRecord.for_planned(planned, DQ_PROFILE) for planned
                   in ExperimentMatrix(DQ_PROFILE).corpus_runs()[:4]]
        for record in records:
            assert queue.publish(record)
        agent = nodeagent.NodeAgent(queue, BuildOptions(), DQ_PROFILE,
                                    str(store.root), node="n1")
        seen = []
        real_on_update = agent._on_update

        def on_update(task, envelope, accepted):
            real_on_update(task, envelope, accepted)
            if task.kind == "materialize":
                seen.append((list(queue.read_beats()["n1"].segments),
                             agent.plane.segments()))

        agent._on_update = on_update
        try:
            deadline = time.monotonic() + 60.0
            while not all(queue.is_done(r.task_id) for r in records):
                assert time.monotonic() < deadline and not agent.stopping
                agent.tick(time.time(), 0.05)
        finally:
            agent.shutdown()
            get_telemetry().set_node(None)
        assert seen
        for on_disk, held in seen:
            assert on_disk == held and held


class TestPublishResult:
    def test_live_epoch_publishes_trace_and_marker(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        store = _FakeStore()

        class _Trace:
            degraded = False

        assert publish_result(queue, store, "n1", 1, record,
                              _FakeRun(trace=_Trace()))
        assert store.saved == [record.cell_key]
        marker = queue.read_done(record.task_id)
        assert marker["status"] == "ok"
        assert marker["node"] == "n1" and marker["epoch"] == 1

    def test_failure_publishes_failure_and_marker(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        store = _FakeStore()
        failure = RunFailure(kind="crash", message="boom")
        assert publish_result(queue, store, "n1", 1, record,
                              _FakeRun(failure=failure))
        assert store.failures == [record.cell_key]
        assert queue.read_done(record.task_id)["status"] == "failed"

    def test_fenced_epoch_is_rejected_and_writes_nothing(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        store = _FakeStore()
        queue.raise_fence("n1", 2)

        class _Trace:
            degraded = False

        assert not publish_result(queue, store, "n1", 2, record,
                                  _FakeRun(trace=_Trace()))
        assert store.saved == [] and store.failures == []
        assert not queue.is_done(record.task_id)

    def test_swept_queue_rejects_even_without_fence_file(self, tmp_path):
        queue = _queue(tmp_path)
        record = _record()
        store = _FakeStore()
        queue.sweep()

        class _Trace:
            degraded = False

        assert not publish_result(queue, store, "zombie", 99, record,
                                  _FakeRun(trace=_Trace()))
        assert store.saved == []


class TestSweep:
    def test_the_fence_holds_while_the_sweep_unlinks(self, tmp_path,
                                                     monkeypatch):
        """Every file the sweep unlinks leaves a fenced epoch fenced: a
        zombie's publish must never see ``fences/`` present but its
        floor deleted (a floor of 0 would pass it, and its failure
        record would overwrite the good store entry)."""
        queue = _queue(tmp_path)
        queue.raise_fence("zombie", 5)
        queue.publish(_record())
        queue.write_beat("zombie", {"epoch": 5})
        verdicts = []
        real_unlink = type(queue.root).unlink

        def unlink(path, *args, **kwargs):
            real_unlink(path, *args, **kwargs)
            verdicts.append((path.name, queue.check_fence("zombie", 5)))

        monkeypatch.setattr(type(queue.root), "unlink", unlink)
        assert not queue.check_fence("zombie", 5)
        assert queue.sweep() == 0
        assert "zombie.json" in [name for name, _ in verdicts]
        assert [v for v in verdicts if v[1]] == []

    def test_sweep_removes_everything(self, tmp_path):
        queue = _queue(tmp_path)
        queue.publish(_record())
        queue.write_beat("n1", {"epoch": 1})
        queue.raise_fence("n1", 1)
        queue.mark_done("t-x", {"status": "ok", "node": "n1", "epoch": 1})
        queue.write_manifest({"store_root": "x"})
        queue.mark_complete()
        assert queue.sweep() == 0
        assert not queue.root.exists()


class TestCoordinatorEndToEnd:
    def _vectors(self, corpus):
        return [(v.tag, v.as_array().tobytes()) for v in corpus.vectors()]

    def test_distributed_build_matches_inline(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        inline = build_corpus(DQ_PROFILE,
                              store=ResultStore(tmp_path / "s-inline"),
                              workers=1)
        assert not inline.failures
        dist = build_corpus(DQ_PROFILE,
                            store=ResultStore(tmp_path / "s-dist"),
                            workers=1,
                            distributed=tmp_path / "queue")
        assert not dist.failures
        assert dist.distributed
        assert dist.nodes_seen == 1
        assert dist.stale_epoch_rejections == 0  # clean run
        assert dist.stale_done_markers == 0
        assert dist.queue_leftovers == 0
        assert not (tmp_path / "queue").exists()
        assert self._vectors(dist) == self._vectors(inline)

    def test_queue_holds_no_liveness_files(self, tmp_path, monkeypatch):
        """Crew workers beat into shared memory: at the sweep the queue
        root holds the manifest, the completion marker and the five
        protocol directories, and ``nodes/`` one beat per peer: none
        here, for the coordinator's own node writes no beat."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        layouts = []
        real_sweep = DistributedQueue.sweep

        def sweep(queue):
            layouts.append((sorted(p.name for p in queue.root.iterdir()),
                            sorted(p.name for p in queue.nodes_dir.iterdir()),
                            [p.name for p in queue.root.rglob("hb-*")]))
            return real_sweep(queue)

        monkeypatch.setattr(DistributedQueue, "sweep", sweep)
        corpus = build_corpus(DQ_PROFILE, store=ResultStore(tmp_path / "s"),
                              workers=2, distributed=tmp_path / "queue")
        assert not corpus.failures and corpus.queue_leftovers == 0
        assert layouts == [(
            ["claims", "complete.json", "done", "fences", "manifest.json",
             "nodes", "tasks"], [], [])]

    @pytest.mark.parametrize("path", ["fabric", "distqueue"])
    def test_every_build_path_matches_inline(self, tmp_path, monkeypatch,
                                             path):
        """One plan through the inline call loop and through the crew
        loop behind a Supervisor / a Coordinator: the same runs in the
        same order, byte-identical vectors, the same progress events."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        # Neither loop may sleep between rounds: both wait on the crew's
        # worker pipes (this is what keeps smoke-distqueue at the
        # fabric's wall, checked without a stopwatch).
        sleeps = []
        monkeypatch.setattr("repro.experiments.distqueue.time.sleep",
                            sleeps.append)

        def build(name, **kwargs):
            lines = []
            corpus = build_corpus(DQ_PROFILE, progress=lines.append,
                                  store=ResultStore(tmp_path / name),
                                  **kwargs)
            assert not corpus.failures
            # "[i/n] alg@graph: status=ok source=run", minus timings.
            return corpus, [line.split(" t=")[0] for line in lines]

        inline, inline_progress = build("s-inline", workers=1)
        other, other_progress = build("s-" + path, workers=2, **(
            {"distributed": tmp_path / "queue"} if path == "distqueue"
            else {}))
        assert other.distributed == (path == "distqueue")
        assert len(inline_progress) == len(inline.runs) > 0
        assert [r.tag for r in other.runs] == [r.tag for r in inline.runs]
        assert self._vectors(other) == self._vectors(inline)
        assert other_progress == inline_progress
        assert sleeps == []

    def test_ghost_node_claim_is_fenced_and_requeued(self, tmp_path,
                                                     monkeypatch):
        """A peer that claimed a task and vanished without ever
        heartbeating: the coordinator must fence it once the claim
        outlives the lease timeout, requeue the cell, and still
        converge bit-identically."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        inline = build_corpus(DQ_PROFILE,
                              store=ResultStore(tmp_path / "s-inline"),
                              workers=1)
        queue = DistributedQueue(tmp_path / "queue")
        queue.ensure_layout()
        planned = ExperimentMatrix(DQ_PROFILE).corpus_runs()[0]
        record = TaskRecord.for_planned(planned, DQ_PROFILE)
        ghost_claim = (queue.claims_dir
                       / f"{record.task_id}@ghost-node@1.json")
        ghost_claim.write_text(json.dumps(record.to_dict()),
                               encoding="utf-8")
        dist = build_corpus(DQ_PROFILE,
                            store=ResultStore(tmp_path / "s-dist"),
                            workers=1,
                            distributed=tmp_path / "queue",
                            options=BuildOptions(lease_timeout_s=0.5))
        assert not dist.failures
        assert dist.nodes_lost >= 1
        assert dist.queue_requeues >= 1
        assert dist.queue_leftovers == 0
        assert not (tmp_path / "queue").exists()
        assert self._vectors(dist) == self._vectors(inline)

    def test_lost_store_entry_is_run_again(self, tmp_path, monkeypatch):
        """The store loses a cell's entry after its done marker landed:
        the coordinator re-publishes the record and the embedded agent,
        which finished that task id once already, runs it again."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        inline = build_corpus(DQ_PROFILE,
                              store=ResultStore(tmp_path / "s-inline"),
                              workers=1)
        victim = TaskRecord.for_planned(
            ExperimentMatrix(DQ_PROFILE).corpus_runs()[2], DQ_PROFILE)
        epochs = []

        def publish_then_lose(queue, store, node, epoch, record, run):
            ok = publish_result(queue, store, node, epoch, record, run)
            if record == victim:
                epochs.append(epoch)
                if len(epochs) == 1:
                    store.discard(record.cell_key)
            return ok

        monkeypatch.setattr(nodeagent, "publish_result", publish_then_lose)
        dist = build_corpus(DQ_PROFILE,
                            store=ResultStore(tmp_path / "s-dist"),
                            workers=2, distributed=tmp_path / "queue")
        assert not dist.failures
        assert len(epochs) == 2 and epochs[0] < epochs[1]
        assert self._vectors(dist) == self._vectors(inline)


class TestReclaim:
    def test_agent_runs_a_reclaimed_cell_again(self, tmp_path, monkeypatch):
        """publish -> done -> (store entry and marker gone, record
        published again) -> done again, under the next epoch: the board
        keeps no finished task in the way of its id."""
        from repro.obs.telemetry import get_telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        queue = _queue(tmp_path)
        store = ResultStore(tmp_path / "store")
        record = TaskRecord.for_planned(
            ExperimentMatrix(DQ_PROFILE).corpus_runs()[0], DQ_PROFILE)
        agent = nodeagent.NodeAgent(queue, BuildOptions(), DQ_PROFILE,
                                    str(store.root), node="n1")
        try:
            for epoch in (1, 2):
                assert queue.publish(record)
                deadline = time.monotonic() + 60.0
                while not queue.is_done(record.task_id):
                    assert time.monotonic() < deadline and not agent.stopping
                    agent.tick(time.time(), 0.05)
                marker = queue.read_done(record.task_id)
                assert (marker["status"], marker["epoch"]) == ("ok", epoch)
                assert store.replay(record.cell_key, False) is not None
                assert agent.drained and queue.claims() == []
                store.discard(record.cell_key)
                queue.drop_done(record.task_id)
        finally:
            agent.shutdown()
            get_telemetry().set_node(None)


class TestCoordinatorRound:
    """The round waits on events, lists the queue once per ``POLL_S``,
    and never spins — on a fake clock, without a build."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = SimpleNamespace(now=100.0, slept=[])

        def sleep(seconds):
            clock.slept.append(seconds)
            clock.now += seconds

        monkeypatch.setattr(distqueue, "time", SimpleNamespace(
            time=lambda: clock.now, monotonic=lambda: clock.now,
            sleep=sleep))
        return clock

    def _coordinator(self, tmp_path, monkeypatch):
        co = Coordinator(
            queue=_queue(tmp_path), plan=[], profile=DQ_PROFILE,
            store=_FakeStore(), workers=1, options=BuildOptions(),
            corpus=SimpleNamespace(n_collected=0, nodes_seen=0,
                                   stale_epoch_rejections=0))
        co.local_node = "coordinator"
        listings = []
        monkeypatch.setattr(co, "_supervise",
                            lambda: listings.append(distqueue.time.time()))
        return co, listings

    def test_a_stopped_agent_ends_the_build(self, tmp_path, monkeypatch,
                                            clock):
        """An embedded agent that stopped (its queue or store I/O
        failed) can run nothing more: the build ends at once,
        interrupted, through the agent's shutdown, which puts its
        claims back, instead of idling beside them."""
        shutdowns = []

        def tick(now, wait_s):
            agent.stopping = True

        agent = SimpleNamespace(node="coordinator", stopping=False,
                                tick=tick,
                                shutdown=lambda: shutdowns.append(now()),
                                crew=SimpleNamespace(replaced=0),
                                board=SimpleNamespace(total_lease_expiries=0))
        monkeypatch.setattr(nodeagent, "NodeAgent",
                            lambda *args, **kwargs: agent)
        now = distqueue.time.time
        real_sleep = distqueue.time.sleep

        def sleep(seconds):
            assert now() < 110.0, "the coordinator idles on"
            real_sleep(seconds)

        monkeypatch.setattr(distqueue.time, "sleep", sleep)
        queue = _queue(tmp_path)
        corpus = BehaviorCorpus(profile=DQ_PROFILE)
        plan = ExperimentMatrix(DQ_PROFILE).corpus_runs()[:2]
        Coordinator(queue=queue, plan=plan, profile=DQ_PROFILE,
                    store=ResultStore(tmp_path / "store"), corpus=corpus,
                    workers=1, options=BuildOptions()).run()
        assert corpus.interrupted and corpus.n_collected == 0
        assert shutdowns == [100.0] and clock.slept == []
        assert corpus.queue_leftovers == 0 and not queue.root.exists()

    def test_busy_crew_does_not_raise_the_listing_rate(self, tmp_path,
                                                       monkeypatch, clock):
        """A result every millisecond wakes a round every millisecond;
        nodes/ and claims/ are still listed once per ``POLL_S``, and the
        tick never waits past the next listing."""
        co, listings = self._coordinator(tmp_path, monkeypatch)
        waits = []

        def tick(now, wait_s):
            waits.append(wait_s)
            clock.now += min(wait_s, 0.001)

        agent = SimpleNamespace(stopping=False, tick=tick)
        while clock.now < 101.0:
            co._round(agent)
        assert len(waits) > 500 and clock.slept == []
        assert max(waits) <= POLL_S
        assert 1.0 / POLL_S - 1 <= len(listings) <= 1.0 / POLL_S + 2
        gaps = [b - a for a, b in zip(listings, listings[1:])]
        assert min(gaps) >= POLL_S - 1e-9


class TestShutdownAndFaults:
    @pytest.mark.parametrize("path", ["inline", "distqueue"])
    def test_a_store_fault_is_a_recorded_failure(self, tmp_path,
                                                 monkeypatch, path):
        """One ENOSPC on the third store write: the build finishes with
        every cell, that one recorded as ``disk-io``, inline and over
        the queue with no peers alike. (The distributed build used to
        hang: its embedded agent stopped holding its claims, and the
        coordinator idled beside them.)"""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        saved = []
        real_save = ResultStore.save

        def save(store, key, trace):
            saved.append(key)
            if len(saved) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_save(store, key, trace)

        def hung(signum, frame):
            raise TimeoutError("the build hung")

        monkeypatch.setattr(ResultStore, "save", save)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        try:
            corpus = build_corpus(
                DQ_PROFILE, store=ResultStore(tmp_path / "s"), workers=1,
                distributed=(tmp_path / "queue" if path == "distqueue"
                             else None))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        plan = ExperimentMatrix(DQ_PROFILE).corpus_runs()
        assert corpus.n_collected == len(plan) and not corpus.interrupted
        (failed,) = corpus.failures
        assert failed.failure.kind == "disk-io"
        assert run_cache_key(PlannedRun(failed.algorithm, failed.spec),
                             DQ_PROFILE) == saved[2]
        assert corpus.queue_leftovers == 0
        assert not (tmp_path / "queue").exists()

    def test_a_node_flushes_before_its_done_beat(self, tmp_path):
        """The coordinator merges a peer's sink once it reads the peer's
        ``done`` beat: the ``stop`` event, with the node's peak RSS, must
        be on disk by then."""
        from repro.obs.telemetry import get_telemetry

        queue, obs_dir = _queue(tmp_path), tmp_path / "obs"
        agent = nodeagent.NodeAgent(
            queue, BuildOptions(obs_level="full", obs_dir=str(obs_dir),
                                run_id="r-1"),
            DQ_PROFILE, str(tmp_path / "store"), node="n1")
        seen = []
        real_write_beat = queue.write_beat

        def write_beat(node, payload):
            if payload["done"]:
                seen.append(list(read_events(node_sink_path(obs_dir,
                                                            node))))
            real_write_beat(node, payload)

        queue.write_beat = write_beat
        try:
            agent.shutdown()
        finally:
            get_telemetry().set_node(None)
        (at_done,) = seen
        assert at_done[-1]["action"] == "stop"
        assert at_done[-1]["peak_rss_bytes"] > 0
        assert queue.read_beats()["n1"].done


@pytest.mark.parametrize("path", ["inline", "fabric", "distqueue"])
def test_a_build_renames_over_no_file(tmp_path, monkeypatch, path):
    """Every file a cold build publishes goes to a fresh name. A rename
    over an existing file makes ext4 flush the new file's data first
    (tens of milliseconds, where a fresh name costs microseconds), so a
    build loop that replaces files pays a disk's latency per write. The
    spy logs to a file so that forked workers' calls count too."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    log = tmp_path / "replaced.log"
    real_replace = os.replace

    def replace(src, dst, **kwargs):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{int(os.path.exists(dst))} {dst}\n")
        return real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    corpus = build_corpus(
        DQ_PROFILE, store=ResultStore(tmp_path / "s"),
        workers=1 if path == "inline" else 2,
        distributed=tmp_path / "queue" if path == "distqueue" else None)
    assert not corpus.failures
    calls = log.read_text(encoding="utf-8").splitlines()
    assert calls  # the store's entries at least
    assert [c for c in calls if c.startswith("1 ")] == []
