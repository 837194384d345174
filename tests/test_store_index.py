"""The result store's summary index (DESIGN.md §7): a build served from
it is the build a full parse of every entry gives, and it elides
nothing but parsing — every entry is still read on every call."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import durable
from repro._util.errors import ReproError
from repro.behavior.metrics import BehaviorMetrics, compute_metrics
from repro.behavior.trace import RunTrace
from repro.experiments import results
from repro.experiments.config import BuildOptions, ExperimentMatrix, Profile
from repro.experiments.corpus import build_corpus, run_cache_key
from repro.experiments.failures import RunFailure
from repro.experiments.graph_cache import default_cache
from repro.experiments.results import ResultStore, StoredRun
from repro.obs.events import EVENTS_FILENAME

from tests.conftest import discard_smoke_cell

#: One cell per algorithm: a build is a few milliseconds warm.
MICRO = Profile(
    name="micro", ga_sizes=(200,), cf_sizes=(80,), matrix_rows=(30,),
    grid_sides=(8,), mrf_edges=(40,), memory_budget_bytes=1_400_000,
    ad_n_hashes=64, coverage_samples=1_000, seed=11, alphas=(2.5,))
KEYS = [run_cache_key(p, MICRO)
        for p in ExperimentMatrix(MICRO).corpus_runs()]
INDEX = Path("index", "summaries.json")


@pytest.fixture(scope="module")
def micro_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("micro-store")
    build_corpus(MICRO, store=ResultStore(root))
    return root


def _warm(root: Path, **how):
    default_cache().clear()  # executed cells name where their graph was
    return build_corpus(MICRO, store=ResultStore(root), **how)


# ----------------------------------------------------------------------
# The oracle: every entry parsed and reduced on every call
# ----------------------------------------------------------------------
def _full_replay_outcome(store, key, resume=False):
    hit = store.replay(key, resume)
    if isinstance(hit, RunTrace):
        return StoredRun(store.root, key, "", compute_metrics(hit),
                         hit.degraded, hit.health,
                         hit.meta.get("graph_source"), hit)
    return hit


def _oracle_build(root: Path, **how):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ResultStore, "outcome", _full_replay_outcome)
        return _warm(root, **how)


def _vector_rows(corpus) -> list:
    return sorted((repr(v.tag), v.as_array().tobytes())
                  for v in corpus.vectors())


def _cell_events(obs_dir: Path) -> list:
    """``cell_end`` / ``progress`` events without clocks and pids."""
    events = []
    for line in (obs_dir / EVENTS_FILENAME).read_text().splitlines():
        event = json.loads(line)
        if event["kind"] in ("cell_end", "progress"):
            events.append({k: v for k, v in event.items()
                           if k not in ("ts", "pid")
                           and not k.endswith("_s")})
    return events


def _observed(corpus, root: Path, obs_dir: Path) -> dict:
    return {
        "vectors": _vector_rows(corpus),
        "raw": [(r.tag, r.metrics.as_array().tobytes(), r.source)
                for r in corpus.runs],
        "failures": [(f.tag, f.failure.kind, f.failure.message, f.source)
                     for f in corpus.failures],
        "n_cached": corpus.n_cached,
        "degraded": [r.tag for r in corpus.degraded_runs],
        "quarantined": ResultStore(root).n_quarantined(),
        "events": _cell_events(obs_dir),
    }


# ----------------------------------------------------------------------
# What can happen to a store between two builds
# ----------------------------------------------------------------------
def _resave(root, key):
    store = ResultStore(root)
    trace = store.load(key)
    if trace is not None:
        trace.wall_time_s += 1.0
        store.save(key, trace)


def _save_degraded(root, key):
    store = ResultStore(root)
    trace = store.load(key)
    if trace is not None:
        store.save(key, dataclasses.replace(
            trace, degraded=True, converged=False,
            iterations=trace.iterations[:1],
            health={"condition": "stall", "iteration": 1,
                    "detail": "", "policy": "degrade"}))


def _overwrite(root, key, text=None, cut=None):
    path = ResultStore(root)._path(key)
    if path.exists():
        path.write_text(path.read_text()[:cut] if text is None else text)


def _swap_same_length_and_mtime(root, key):
    """One counter digit changed: a stat signature sees nothing."""
    path = ResultStore(root)._path(key)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return  # discarded, or garbage already
    if data.get("iterations"):
        before = path.stat()
        old = data["iterations"][0]["updates"]
        data["iterations"][0]["updates"] = old + (1 if old % 10 < 9 else -1)
        path.write_text(json.dumps(data, sort_keys=True))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size


def _index_other_schema(root, _key):
    path = root / INDEX
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return  # absent, or torn already
    data["schema"] += 1
    path.write_text(json.dumps(data))


def _index_tear(root, _key):
    path = root / INDEX
    if path.exists():
        path.write_text(path.read_text()[:path.stat().st_size // 2])


ACTIONS = {
    "save": _resave,
    "save-degraded": _save_degraded,
    "save-crash": lambda root, key: ResultStore(root).save_failure(
        key, RunFailure("crash", "boom")),
    "save-memory": lambda root, key: ResultStore(root).save_failure(
        key, RunFailure("memory", "over budget")),
    "discard": lambda root, key: ResultStore(root).discard(key),
    "garbage": lambda root, key: _overwrite(root, key, text="\x00garbage"),
    "truncate": lambda root, key: _overwrite(root, key, cut=40),
    "swap": _swap_same_length_and_mtime,
    "index-delete": lambda root, _key: (root / INDEX).unlink(
        missing_ok=True),
    "index-tear": _index_tear,
    "index-schema": _index_other_schema,
    "build": lambda root, _key: _warm(root),
    "build-resume": lambda root, _key: _warm(
        root, options=BuildOptions(resume=True)),
}
#: ``copy`` is the one action that moves the store.
STEPS = st.lists(st.tuples(st.sampled_from(sorted(ACTIONS) + ["copy"]),
                           st.sampled_from(KEYS)), max_size=8)


@settings(max_examples=40, deadline=None)
@given(steps=STEPS, resume=st.booleans())
def test_an_index_served_build_is_the_full_replay_build(
        micro_root, steps, resume):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        root = Path(shutil.copytree(micro_root, scratch / "store-0"))
        for n, (action, key) in enumerate(steps, start=1):
            if action == "copy":
                root = Path(shutil.copytree(root, scratch / f"store-{n}"))
            else:
                ACTIONS[action](root, key)
        twin = Path(shutil.copytree(root, scratch / "twin"))
        options = BuildOptions(resume=resume)
        served = _warm(root, options=options, obs="full",
                       obs_dir=scratch / "obs")
        oracle = _oracle_build(twin, options=options, obs="full",
                               obs_dir=scratch / "obs-twin")
        assert (_observed(served, root, scratch / "obs")
                == _observed(oracle, twin, scratch / "obs-twin"))
        # What the index now says holds for the next build too.
        assert _vector_rows(_warm(root)) == _vector_rows(
            _oracle_build(twin))


# ----------------------------------------------------------------------
# What a warm build does, counted
# ----------------------------------------------------------------------
class Counts:
    """Reads, parses and publishes of one store, while installed."""

    def __init__(self, patch, root: Path) -> None:
        self.entry_reads = self.index_reads = 0
        self.json_parses = self.trace_parses = 0
        self.published: "list[str]" = []
        real_read, real_parse = Path.read_text, durable.parse_json_object
        real_from_dict, real_publish = (RunTrace.from_dict.__func__,
                                        durable.publish)

        def read_text(path, *args, **kwargs):
            if path.parent == root:
                self.entry_reads += 1
            elif path == root / INDEX:
                self.index_reads += 1
            return real_read(path, *args, **kwargs)

        def parse(text):
            self.json_parses += 1
            return real_parse(text)

        def from_dict(cls, data):
            self.trace_parses += 1
            return real_from_dict(cls, data)

        def publish(path, text, **kwargs):
            self.published.append(path.name)
            return real_publish(path, text, **kwargs)

        patch.setattr(Path, "read_text", read_text)
        patch.setattr(durable, "parse_json_object", parse)
        patch.setattr(RunTrace, "from_dict", classmethod(from_dict))
        patch.setattr(durable, "publish", publish)


def test_a_warm_build_reads_every_entry_and_parses_none(warm_smoke_cache):
    root = warm_smoke_cache.root
    with pytest.MonkeyPatch.context() as patch:
        first = Counts(patch, root)
        build_corpus("smoke", store=ResultStore(root))
    assert (first.entry_reads, first.trace_parses) == (220, 215)
    assert first.published == ["summaries.json"]

    with pytest.MonkeyPatch.context() as patch:
        second = Counts(patch, root)
        corpus = build_corpus("smoke", store=ResultStore(root))
    assert (corpus.n_cached, len(corpus.vectors())) == (220, 215)
    assert (second.entry_reads, second.index_reads) == (220, 1)
    assert second.json_parses == 1  # the index
    assert second.trace_parses == 0 and second.published == []

    # One cell re-executed: its new bytes are summarised by the next
    # read, the index is published once, and the store is warm again.
    discard_smoke_cell(warm_smoke_cache, "cc-ga-ne300-a2.0")
    with pytest.MonkeyPatch.context() as patch:
        rebuild = Counts(patch, root)
        assert build_corpus("smoke", store=ResultStore(root)).n_executed == 1
        assert build_corpus("smoke", store=ResultStore(root)).n_executed == 0
    assert rebuild.trace_parses == 1
    assert [n for n in rebuild.published if n == "summaries.json"] == [
        "summaries.json"]
    with pytest.MonkeyPatch.context() as patch:
        settled = Counts(patch, root)
        build_corpus("smoke", store=ResultStore(root))
    assert settled.trace_parses == 0 and settled.published == []


def test_a_warm_crewed_build_parses_nothing_in_the_parent(
        micro_root, tmp_path):
    root = Path(shutil.copytree(micro_root, tmp_path / "store"))
    _warm(root)
    with pytest.MonkeyPatch.context() as patch:
        parent = Counts(patch, root)
        corpus = _warm(root, workers=2)
    assert corpus.n_cached == len(KEYS) and corpus.premat_graphs == 0
    assert parent.trace_parses == 0 and parent.published == []
    # Crew workers hand back summaries; the traces still load.
    assert all(r.trace.algorithm == r.algorithm for r in corpus.runs)


def test_a_warm_distributed_build_parses_nothing_in_the_coordinator(
        warm_smoke_cache, tmp_path):
    """The coordinator's plan filter and collector and the node agent's
    dedup take the store's summary door, as the cell executor does."""
    root = warm_smoke_cache.root
    inline = build_corpus("smoke", store=ResultStore(root))  # the index
    with pytest.MonkeyPatch.context() as patch:
        coordinator = Counts(patch, root)
        corpus = build_corpus("smoke", store=ResultStore(root), workers=2,
                              distributed=tmp_path / "queue")
    assert corpus.distributed and corpus.n_cached == 220
    assert coordinator.trace_parses == 0
    assert _vector_rows(corpus) == _vector_rows(inline)


def test_a_crew_worker_builds_one_store_for_all_its_cells(
        warm_smoke_cache, tmp_path):
    """So a warm crewed build reads the summary index once per worker,
    not once per cell."""
    log, real_init = tmp_path / "stores.log", ResultStore.__init__

    def init(self, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        real_init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        # The crew is forked, so its workers run the patched class too.
        patch.setattr(ResultStore, "__init__", init)
        corpus = build_corpus("smoke", store=ResultStore(
            warm_smoke_cache.root), workers=2)
    assert corpus.n_cached == 220 and corpus.workers_replaced == 0
    in_workers = [pid for pid in log.read_text().split()
                  if pid != str(os.getpid())]
    assert len(in_workers) == len(set(in_workers)) == 2


# ----------------------------------------------------------------------
# Edges of the serve rule
# ----------------------------------------------------------------------
def test_a_served_retryable_failure_reruns_only_under_resume(
        micro_root, tmp_path):
    root = Path(shutil.copytree(micro_root, tmp_path / "store"))
    ResultStore(root).save_failure(KEYS[0], RunFailure("crash", "boom"))
    ResultStore(root).save_failure(KEYS[1], RunFailure("memory", "big"))
    _warm(root)  # both failures are now index records
    with pytest.MonkeyPatch.context() as patch:
        counts = Counts(patch, root)
        replayed = _warm(root)
    assert counts.json_parses == 1 and counts.trace_parses == 0
    assert sorted((f.failure.kind, f.source) for f in replayed.failures) == [
        ("crash", "cache"), ("memory", "cache")]
    resumed = _warm(root, options=BuildOptions(resume=True))
    assert resumed.n_executed == 1
    assert [(f.failure.kind, f.source) for f in resumed.failures] == [
        ("memory", "cache")]


@pytest.mark.parametrize("disturb", [
    lambda store, key: store.discard(key),
    lambda store, key: _resave(store.root, key),
])
def test_a_trace_that_left_since_the_build_is_an_error_not_none(
        micro_root, tmp_path, disturb):
    root = Path(shutil.copytree(micro_root, tmp_path / "store"))
    _warm(root)
    corpus = _warm(root)
    run, other = corpus.runs[0], corpus.runs[1]
    key = run_cache_key(run, MICRO)
    disturb(ResultStore(root), key)
    assert run.ok and not run.degraded and run.metrics is not None
    with pytest.raises(ReproError, match=key):
        run.trace
    assert other.trace.algorithm == other.algorithm
    assert other.trace is other.trace  # loaded once


def test_the_index_is_no_entry(micro_root, tmp_path):
    root = Path(shutil.copytree(micro_root, tmp_path / "store"))
    _warm(root)
    store = ResultStore(root)
    assert (root / INDEX).exists()
    assert len(list(root.glob("*.json"))) == len(KEYS)
    assert len(list(store.iter_traces())) == len(KEYS)
    assert store.clear() == len(KEYS)
    assert not (root / INDEX).exists()
    assert _warm(root).n_executed == len(KEYS)


def test_a_cold_build_writes_no_index(tmp_path):
    build_corpus(MICRO, store=ResultStore(tmp_path))
    assert not (tmp_path / "index").exists()


def test_a_store_that_cannot_be_written_still_serves(
        micro_root, tmp_path, monkeypatch):
    root = Path(shutil.copytree(micro_root, tmp_path / "store"))

    def read_only(path, text, **kwargs):
        raise PermissionError(13, "read-only store", str(path))

    monkeypatch.setattr(durable, "publish", read_only)
    assert _warm(root).n_cached == len(KEYS)
    assert not (root / INDEX).exists()


def test_a_new_metric_forces_a_schema_bump():
    """Records hold ``BehaviorMetrics`` positionally: a field added,
    dropped or moved must change ``_INDEX_SCHEMA`` (and this pin)."""
    fields = [f.name for f in dataclasses.fields(BehaviorMetrics)]
    assert (results._INDEX_SCHEMA, fields) == (1, [
        "updt", "work", "eread", "msg", "active_fraction_mean",
        "n_iterations"])


def test_a_record_of_the_wrong_shape_is_replaced(micro_root, tmp_path):
    root = Path(shutil.copytree(micro_root, tmp_path / "store"))
    _warm(root)
    index = json.loads((root / INDEX).read_text())
    names = sorted(index["entries"])
    index["entries"][names[0]]["metric_values"] = ["a"] * 6
    index["entries"][names[1]]["metric_values"].pop()
    del index["entries"][names[2]]["health_verdict"]
    index["entries"][names[3]] = "not a record"
    (root / INDEX).write_text(json.dumps(index))
    twin = Path(shutil.copytree(root, tmp_path / "twin"))
    with pytest.MonkeyPatch.context() as patch:
        counts = Counts(patch, root)
        served = _warm(root)
    assert _vector_rows(served) == _vector_rows(_oracle_build(twin))
    assert counts.trace_parses == 4 and counts.published == [INDEX.name]
