"""The crash-safe file layer (`repro._util.durable`) and the decisions
each of its callers keeps for itself: who retries, who may create a
directory, what a failed quarantine raises, what a reader sees after a
failed publish."""

import errno
import hashlib
import json
import os
import re
import threading
from pathlib import Path

import pytest

from repro._util import durable
from repro._util.errors import CacheCorruptError
from repro._util.faulthooks import hook_value
from repro.experiments import nodeagent
from repro.experiments.config import (
    BuildOptions,
    ExperimentMatrix,
    get_profile,
)
from repro.experiments.corpus import _run_cell, run_cache_key
from repro.experiments.distqueue import DistributedQueue
from repro.experiments.results import ResultStore
from repro.obs.events import read_all_events
from repro.obs.telemetry import configure, deactivate
from tests.test_resilience import TINY_PROFILE, _planned
from tests.test_store_concurrency import _trace_for


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    yield
    deactivate()


def _failing_replace(monkeypatch, code: int, times: int) -> list:
    """Make the next ``times`` ``os.replace`` calls raise ``code``;
    returns the list every call's source path is appended to."""
    real, calls = os.replace, []

    def replace(src, dst):
        calls.append(Path(src))
        if len(calls) <= times:
            raise OSError(code, os.strerror(code))
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return calls


# ----------------------------------------------------------------------
# The five writers: (publish generation g into directory d, read back)
# ----------------------------------------------------------------------
def _queue(d: Path) -> DistributedQueue:
    queue = DistributedQueue(d)
    queue.ensure_layout()
    return queue


def _beat(d: Path, g: int) -> None:
    # A node beat, the one heartbeat that is a file (crew workers beat
    # into shared memory).
    _queue(d).write_beat("n", {"epoch": g})


WRITERS = {
    "result-store": (
        lambda d, g: ResultStore(d).save("k", _trace_for(f"gen{g}")),
        lambda d: ResultStore(d).load("k").algorithm[-1]),
    "queue-record": (
        lambda d, g: _queue(d).mark_done("t", {"gen": g}),
        lambda d: str(_queue(d).read_done("t")["gen"])),
    "heartbeat": (
        _beat, lambda d: str(_queue(d).read_beats()["n"].epoch)),
}


@pytest.mark.parametrize("name", WRITERS)
def test_failed_publish_keeps_old_generation_and_no_litter(
        name, tmp_path, monkeypatch):
    write, read = WRITERS[name]
    write(tmp_path, 1)
    _failing_replace(monkeypatch, errno.EACCES, times=1)
    with pytest.raises(PermissionError):
        write(tmp_path, 2)
    assert read(tmp_path) == "1"
    assert list(tmp_path.rglob("*.tmp")) == []
    write(tmp_path, 3)  # and the target is still writable
    assert read(tmp_path) == "3"


@pytest.mark.parametrize("name", WRITERS)
def test_staging_name_is_unique_per_writer(name, tmp_path, monkeypatch):
    calls = _failing_replace(monkeypatch, errno.EACCES, times=0)
    WRITERS[name][0](tmp_path, 1)
    WRITERS[name][0](tmp_path, 2)
    staged = [p.name for p in calls if p.suffix == ".tmp"]
    assert len(set(staged)) == 2
    for tmp in staged:
        assert re.fullmatch(rf".+\.{os.getpid()}\.[0-9a-f]{{8}}\.tmp", tmp)


@pytest.mark.parametrize("name", sorted(set(WRITERS) - {"result-store"}))
def test_only_the_result_store_retries_transient_errnos(
        name, tmp_path, monkeypatch):
    WRITERS[name][0](tmp_path, 1)
    calls = _failing_replace(monkeypatch, errno.EIO, times=1)
    with pytest.raises(OSError):
        WRITERS[name][0](tmp_path, 2)
    assert len(calls) == 1


def test_queue_and_heartbeat_writes_never_create_a_directory(tmp_path):
    gone = tmp_path / "swept"
    with pytest.raises(FileNotFoundError):
        DistributedQueue(gone).mark_done("t", {})
    with pytest.raises(FileNotFoundError):
        DistributedQueue(gone).write_beat("n", {"epoch": 1})
    assert not gone.exists()


def test_concurrent_publishes_never_tear(tmp_path):
    path = tmp_path / "record.json"
    text = json.dumps({f"series_{i}": i for i in range(20_000)})
    errors: list = []

    def export() -> None:
        try:
            for _ in range(200):
                durable.publish(path, text)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    writers = [threading.Thread(target=export) for _ in range(2)]
    for thread in writers:
        thread.start()
    torn = reads = 0
    while any(thread.is_alive() for thread in writers):
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            continue  # before the first publish
        except ValueError:
            torn += 1
        reads += 1
    for thread in writers:
        thread.join()
    assert errors == []
    assert reads > 0 and torn == 0
    assert list(tmp_path.glob("*.tmp")) == []


# ----------------------------------------------------------------------
# Transient-errno retries
# ----------------------------------------------------------------------
class TestRetryTransientDisk:
    @staticmethod
    def _flaky(code: int, failures: int):
        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] <= failures:
                raise OSError(code, os.strerror(code))
            return "done"

        return fn, state

    def test_two_transient_faults_then_success(self):
        fn, state = self._flaky(errno.EIO, 2)
        retries, slept = [], []
        result = durable.retry_transient_disk(
            fn, key="k", sleep=slept.append,
            on_retry=lambda exc, attempt, delay: retries.append(
                (exc.errno, attempt, delay)))
        assert result == "done" and state["calls"] == 3
        assert [(code, n) for code, n, _ in retries] == [
            (errno.EIO, 1), (errno.EIO, 2)]
        assert slept == [delay for _, _, delay in retries if delay > 0]

    def test_permanent_errno_propagates_at_once(self):
        fn, state = self._flaky(errno.EACCES, 5)
        with pytest.raises(PermissionError):
            durable.retry_transient_disk(fn, key="k", sleep=lambda s: None)
        assert state["calls"] == 1

    def test_budget_exhausted_raises_the_last_error(self):
        fn, state = self._flaky(errno.ESTALE, 99)
        with pytest.raises(OSError) as info:
            durable.retry_transient_disk(fn, key="k", retries=3,
                                         sleep=lambda s: None)
        assert info.value.errno == errno.ESTALE
        assert state["calls"] == 4

    def test_result_store_counts_its_retries(self, tmp_path, monkeypatch):
        configure("full", events_path=tmp_path / "obs" / "events.jsonl")
        _failing_replace(monkeypatch, errno.EIO, times=2)
        store = ResultStore(tmp_path / "store")
        store.save("k", _trace_for("k"))
        assert store.load("k") is not None
        deactivate()
        retries = [e for e in read_all_events(tmp_path / "obs")
                   if e["kind"] == "store"
                   and e["action"] == "disk-retry"]
        assert len(retries) == 2

    def test_exhausted_budget_records_a_disk_io_cell(
            self, tmp_path, monkeypatch):
        calls = _failing_replace(monkeypatch, errno.ENOSPC, times=10**6)
        run = _run_cell(_planned("cc"), TINY_PROFILE,
                        ResultStore(tmp_path), BuildOptions(retries=0))
        assert run.trace is None
        assert run.failure.kind == "disk-io" and run.failure.retryable
        assert "errno=ENOSPC" in run.failure.message
        assert len(calls) == 4  # one publish + its three retries
        assert list(tmp_path.rglob("*.tmp")) == []


# ----------------------------------------------------------------------
# Per-store decisions
# ----------------------------------------------------------------------
def test_entry_appearing_after_a_failed_read_is_a_miss(
        tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    path, real_read = store._path("k"), Path.read_text

    def read_then_publish(self, *args, **kwargs):
        if self != path or path.exists():
            return real_read(self, *args, **kwargs)
        try:
            return real_read(self, *args, **kwargs)  # FileNotFoundError
        finally:
            store.save("k", _trace_for("k"))  # a writer gets in between

    monkeypatch.setattr(Path, "read_text", read_then_publish)
    assert store.replay("k") is None
    assert path.exists() and store.n_quarantined() == 0
    assert store.load("k") is not None


def test_unreadable_entry_is_quarantined_absent_is_not(tmp_path):
    store = ResultStore(tmp_path)
    assert store.replay("absent") is None and store.n_quarantined() == 0
    for i, junk in enumerate(('{"torn": ', "[1, 2]", "\xff\xfe")):
        store._path(f"bad{i}").write_bytes(junk.encode("latin-1"))
        assert store.replay(f"bad{i}") is None
        assert store.n_quarantined() == i + 1
    assert sum(1 for _ in store.iter_traces()) == 0


def test_failed_quarantine_move_error_mapping(tmp_path, monkeypatch):
    results = ResultStore(tmp_path / "r")
    results.save("k", _trace_for("k"))
    results._path("k").write_text("{torn", encoding="utf-8")
    _failing_replace(monkeypatch, errno.EACCES, times=2)
    with pytest.raises(CacheCorruptError):
        results.replay("k")


# ----------------------------------------------------------------------
# Names and fault-hook specs
# ----------------------------------------------------------------------
def test_entry_names_are_shared_and_collision_proof(tmp_path):
    assert durable.entry_name("a@b") != durable.entry_name("a#b")
    assert durable.entry_name("a@b").startswith("a_b-")
    stem = durable.entry_name("cc-ga:7")
    assert ResultStore(tmp_path)._path("cc-ga:7").name == f"{stem}.json"
    with pytest.raises(ValueError):
        durable.entry_name("")


def test_entry_names_are_the_ones_existing_stores_were_written_under():
    """Pinned byte for byte (read off the commit before ``sanitize``
    became one ``re.sub``): a renamed entry is a cold store."""
    assert [durable.entry_name(key) for key in (
        "a@b", "a#b", "k", "é²-x y/z", "smoke-x=1.5")] == [
        "a_b-7508d8b501", "a_b-8187fc8f7f", "k-8254c329a9",
        "é²-x_y_z-b3a214919b", "smoke-x=1.5-f056804ac8"]
    smoke = get_profile("smoke")
    names = [ResultStore("unused")._path(run_cache_key(planned, smoke)).name
             for planned in ExperimentMatrix(smoke).corpus_runs()]
    assert names[0] == "smoke-cc-ga-ne300-a2.0-nrNone-s7-2ac20782c0.json"
    assert len(names) == 220 and hashlib.sha256(
        "\n".join(name[:-len(".json")] for name in names).encode()
    ).hexdigest() == ("c03207f18e34f6e1eaa38f1bcb255ac5"
                      "f2529110f4b9be72ba14379e2b3c5730")
    # ``\w`` is str.isalnum plus "_" at every code point.
    every = "".join(map(chr, range(0x3000))) + "\U0001d7d8\U00020000"
    assert durable.sanitize(every) == "".join(
        c if c.isalnum() or c in "-_.=" else "_" for c in every)
    store = ResultStore("unused")
    assert store._path("k") is store._path("k")


def test_hook_value(monkeypatch):
    monkeypatch.setenv("HOOK", "cc-ga:x:2.5")
    assert hook_value("HOOK", "run-cc-ga:x-s7") == "2.5"
    assert hook_value("HOOK", "pagerank") is None
    assert hook_value("UNSET_HOOK", "anything") is None
    for malformed in ("no-colon", ":3", ""):
        monkeypatch.setenv("HOOK", malformed)
        assert hook_value("HOOK", "no-colon") is None


def test_node_hooks_wildcard_and_fire_once(monkeypatch):
    monkeypatch.setattr(nodeagent, "_fired", set())
    monkeypatch.setenv("NODE_HOOK", "*:1.5")
    assert nodeagent._injection("NODE_HOOK", "any-task") == 1.5
    assert nodeagent._injection("NODE_HOOK", "any-task") is None  # fired
    monkeypatch.setattr(nodeagent, "_fired", set())
    monkeypatch.setenv("NODE_HOOK", "cc-ga:2")
    assert nodeagent._injection("NODE_HOOK", "run:pagerank") is None
    assert nodeagent._injection("NODE_HOOK", "run:cc-ga-ne300") == 2.0
    monkeypatch.setattr(nodeagent, "_fired", set())
    for spec in ("cc-ga:0", "cc-ga:soon", "cc-ga"):
        monkeypatch.setenv("NODE_HOOK", spec)
        assert nodeagent._injection("NODE_HOOK", "run:cc-ga") is None
