"""Cross-process concurrency tests for the on-disk stores.

The distributed queue's first-completion-wins story rests on one
claim: :class:`~repro.experiments.results.ResultStore` stays
consistent under concurrent writers from *different processes* —
atomic publishes never tear, duplicate writers of the same content are
harmless, a writer killed mid-stage leaves only ignorable ``.tmp``
litter, and a quarantine sweep can race a live writer without either
crashing.

These tests exercise exactly that, with real forked processes.
"""

from __future__ import annotations

import json
import multiprocessing as mp

from repro._util.errors import ReproError
from repro.behavior.metrics import compute_metrics
from repro.behavior.trace import IterationRecord, RunTrace
from repro.experiments.failures import RunFailure
from repro.experiments.results import ResultStore

N_PROCS = 4
N_ROUNDS = 20


def _trace_for(key: str) -> RunTrace:
    """Deterministic per-key trace: duplicate writers of one key write
    byte-identical JSON, exactly like duplicate executions of one
    corpus cell."""
    n = sum(key.encode()) % 7 + 2
    return RunTrace(
        algorithm=f"algo-{key}", graph_params={"nedges": n, "seed": 1},
        domain="ga", n_vertices=n * 5, n_edges=n * 10,
        iterations=[IterationRecord(i, n, n, 2 * n, n, 0.25)
                    for i in range(n)])


def _run_procs(target, argslist) -> None:
    ctx = mp.get_context("fork")
    procs = [ctx.Process(target=target, args=args) for args in argslist]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    codes = [p.exitcode for p in procs]
    assert all(code == 0 for code in codes), f"child exit codes: {codes}"


# ----------------------------------------------------------------------
# Child bodies (module-level so fork + join report clean exit codes)
# ----------------------------------------------------------------------
def _result_writer(root, keys, rounds) -> None:
    store = ResultStore(root)
    for r in range(rounds):
        for key in keys:
            store.save(key, _trace_for(key))


def _result_reader(root, keys, rounds) -> None:
    store = ResultStore(root)
    for r in range(rounds * 2):
        for key in keys:
            trace = store.load(key)
            # Absent (not yet written) is fine; torn/corrupt is not —
            # load() would quarantine, which the parent asserts on.
            if trace is not None:
                assert trace.algorithm == f"algo-{key}"


def _result_flip_flopper(root, key, rounds, as_failure) -> None:
    store = ResultStore(root)
    for r in range(rounds):
        if as_failure:
            store.save_failure(key, RunFailure(kind="crash", message="x"))
        else:
            store.save(key, _trace_for(key))


def _result_corrupt_and_load(root, keys, rounds) -> None:
    store = ResultStore(root)
    for r in range(rounds):
        for key in keys:
            path = store._path(key)
            path.write_text("{torn json", encoding="utf-8")
            assert store.load(key) is None  # quarantined, not crashed


def _result_republisher(root, keys, rounds) -> None:
    """Every key alternates between two generations of its trace whose
    summaries differ."""
    store = ResultStore(root)
    for r in range(rounds):
        for key in keys:
            trace = _trace_for(key)
            trace.n_edges += r % 2
            store.save(key, trace)


def _result_summariser(root, keys, rounds) -> None:
    """A warm build's store traffic: ask every key's outcome, publish
    the index. A summary must be the reduction of the very bytes its
    digest names — checked by loading them through the digest, which
    may refuse (the entry moved on) but never hands back other bytes."""
    for r in range(rounds):
        store = ResultStore(root)
        for key in keys:
            served = store.outcome(key)
            if served is None:
                continue  # not yet written
            try:
                trace = store.load_summarised(key, served.digest)
            except ReproError:
                continue
            assert served.metrics == compute_metrics(trace)
        store.publish_index()


def _result_gc(root, rounds) -> None:
    store = ResultStore(root)
    for r in range(rounds):
        store.gc_quarantine(keep=2)


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------
class TestResultStoreConcurrency:
    def test_concurrent_same_key_writers_never_tear(self, tmp_path):
        keys = [f"cell-{i}" for i in range(6)]
        _run_procs(_result_writer,
                   [(tmp_path, keys, N_ROUNDS)] * N_PROCS)
        store = ResultStore(tmp_path)
        for key in keys:
            trace = store.load(key)
            assert trace is not None
            assert trace.to_json() == _trace_for(key).to_json()
        assert store.n_quarantined() == 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_readers_race_writers_without_torn_reads(self, tmp_path):
        keys = [f"cell-{i}" for i in range(4)]
        args = ([(tmp_path, keys, N_ROUNDS)] * (N_PROCS - 1))
        ctx = mp.get_context("fork")
        writers = [ctx.Process(target=_result_writer, args=a)
                   for a in args]
        reader = ctx.Process(target=_result_reader,
                             args=(tmp_path, keys, N_ROUNDS))
        for p in writers + [reader]:
            p.start()
        for p in writers + [reader]:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in writers + [reader])
        # A torn publish would have been quarantined by a reader.
        assert ResultStore(tmp_path).n_quarantined() == 0

    def test_trace_vs_failure_race_leaves_one_valid_entry(self, tmp_path):
        key = "contested"
        _run_procs(_result_flip_flopper,
                   [(tmp_path, key, N_ROUNDS, i % 2 == 0)
                    for i in range(N_PROCS)])
        store = ResultStore(tmp_path)
        trace, failure = store.load(key), store.load_failure(key)
        assert (trace is None) != (failure is None)  # exactly one form
        assert store.n_quarantined() == 0

    def test_summaries_race_republished_entries(self, tmp_path):
        keys = [f"cell-{i}" for i in range(4)]
        _result_republisher(tmp_path, keys, 1)
        _run_procs(lambda body, *args: body(*args), [
            (_result_summariser, tmp_path, keys, N_ROUNDS * 3),
            (_result_summariser, tmp_path, keys, N_ROUNDS * 3),
            (_result_republisher, tmp_path, keys, N_ROUNDS * 3)])
        # Whichever index was published last, it serves what a full
        # parse of the settled entries gives.
        store = ResultStore(tmp_path)
        assert (tmp_path / "index" / "summaries.json").exists()
        for key in keys:
            assert store.outcome(key).metrics == compute_metrics(
                store.load(key))
        assert store.n_quarantined() == 0

    def test_torn_tmp_litter_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("good", _trace_for("good"))
        litter = store._path("good").with_name(
            store._path("good").name + ".9999.deadbeef.tmp")
        litter.write_text("{half a js", encoding="utf-8")
        assert store.load("good") is not None
        assert sum(1 for _ in store.iter_traces()) == 1
        store.save("good", _trace_for("good"))  # still writable
        assert store.load("good") is not None

    def test_quarantine_sweep_races_live_writer(self, tmp_path):
        keys = [f"cell-{i}" for i in range(3)]
        ctx = mp.get_context("fork")
        procs = [
            ctx.Process(target=_result_corrupt_and_load,
                        args=(tmp_path, keys, N_ROUNDS)),
            ctx.Process(target=_result_gc, args=(tmp_path, N_ROUNDS * 3)),
            ctx.Process(target=_result_writer,
                        args=(tmp_path, ["healthy"], N_ROUNDS)),
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        store = ResultStore(tmp_path)
        assert store.load("healthy") is not None
        store.gc_quarantine(keep=2)
        assert store.n_quarantined() <= 2
