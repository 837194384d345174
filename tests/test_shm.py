"""Shared-memory graph plane: publish/attach fidelity, the per-process
graph cache, materialize-once corpus builds, and segment lifecycle
(nothing may outlive the builder in ``/dev/shm``)."""

import gc
import glob
import os
import signal
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from repro.behavior.run import INJECT_SLEEP_ENV
from repro.experiments.config import ExperimentMatrix, GraphSpec, Profile
from repro.experiments.corpus import build_corpus, run_cache_key
from repro.experiments.graph_cache import (
    GraphCache,
    default_cache,
    materialize_problem,
    problem_nbytes,
)
from repro.experiments.results import ResultStore
from repro.graph import shm
from repro.obs.events import read_all_events
from tests.conftest import REPO_ROOT

#: Tiny profile so a full multi-process build finishes in seconds.
TINY_PROFILE = Profile(
    name="tiny-shm",
    ga_sizes=(120, 240),
    cf_sizes=(60, 120),
    matrix_rows=(20,),
    grid_sides=(6,),
    mrf_edges=(24,),
    memory_budget_bytes=1_400_000,
    ad_n_hashes=64,
    coverage_samples=1_000,
    seed=11,
    alphas=(2.0, 2.5),
)


def _shm_segments() -> set:
    return set(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*"))


@pytest.fixture
def clean_plane_state():
    """Isolate the module-level attach/install state and prove the test
    leaked no segments."""
    pre = _shm_segments()
    yield
    shm._close_attachments()
    shm._INSTALLED_MANIFESTS.clear()
    assert _shm_segments() - pre == set()


# ----------------------------------------------------------------------
# Publish / attach fidelity
# ----------------------------------------------------------------------
class TestPublishAttach:
    def test_roundtrip_is_bit_identical_and_read_only(self,
                                                      clean_plane_state):
        spec = GraphSpec.clustering(nedges=300, alpha=2.5, seed=3)
        original = spec.generate()
        plane = shm.GraphPlane()
        try:
            manifest = plane.publish(spec.cache_key(), original)
            attached = shm.attach(manifest)

            g0, g1 = original.graph, attached.graph
            assert (g0.n_vertices, g0.n_edges, g0.directed) == \
                (g1.n_vertices, g1.n_edges, g1.directed)
            for name in ("out_ptr", "out_dst", "out_eid",
                         "in_ptr", "in_src", "in_eid"):
                arr0, arr1 = getattr(g0, name), getattr(g1, name)
                assert arr0.dtype == arr1.dtype
                assert np.array_equal(arr0, arr1)
                assert not arr1.flags.writeable
            assert set(original.inputs) == set(attached.inputs)
            for key, value in original.inputs.items():
                got = attached.inputs[key]
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, got)
                    assert not got.flags.writeable
                else:
                    assert value == got
            assert attached.params == original.params
        finally:
            plane.close()

    def test_publish_is_idempotent_per_key(self, clean_plane_state):
        spec = GraphSpec.ga(nedges=200, alpha=2.0, seed=1)
        plane = shm.GraphPlane()
        try:
            first = plane.publish(spec.cache_key(), spec.generate())
            second = plane.publish(spec.cache_key(), spec.generate())
            assert first is second
            assert len(plane) == 1
        finally:
            plane.close()

    def test_close_takes_its_exit_hook_with_it(self, clean_plane_state,
                                               monkeypatch):
        """A long-lived process builds many planes; a closed one must
        not stay reachable from ``atexit`` until the process ends."""
        spec = GraphSpec.ga(nedges=200, alpha=2.5, seed=2)
        # With the real atexit: nothing but the test holds the plane.
        plane = shm.GraphPlane()
        plane.publish(spec.cache_key(), spec.generate())
        plane.close()
        alive = weakref.ref(plane)
        del plane
        gc.collect()
        assert alive() is None

        # The callback count (CPython's own ``_ncallbacks`` keeps
        # counting an unregistered slot before 3.13, so count here).
        hooks = []

        class Registry:
            register = staticmethod(hooks.append)
            unregister = staticmethod(hooks.remove)
        monkeypatch.setattr(shm, "atexit", Registry)
        plane = shm.GraphPlane()
        assert hooks == [plane.close]
        plane.publish(spec.cache_key(), spec.generate())
        plane.close()
        assert hooks == []
        plane.close()  # still a no-op: nothing to unlink or unregister
        assert hooks == [] and len(plane) == 0
        with pytest.raises(RuntimeError):
            plane.publish(spec.cache_key(), spec.generate())

    def test_an_undirected_graph_is_published_once(self,
                                                   clean_plane_state):
        spec = GraphSpec.cf(nedges=300, alpha=2.5, seed=3)
        original = spec.generate()
        plane = shm.GraphPlane()
        try:
            manifest = plane.publish(spec.cache_key(), original)
            assert [a.name for a in manifest.arrays] == [
                "graph.out_ptr", "graph.out_dst", "graph.out_eid",
                "graph.edge_weight", "input.is_user"]
            assert sum(a.nbytes for a in manifest.arrays) == \
                problem_nbytes(original)
            g = shm.attach(manifest).graph
            assert g.in_ptr is g.out_ptr and g.in_src is g.out_dst \
                and g.in_eid is g.out_eid
            directed = GraphSpec.matrix(nrows=30, seed=3)
            manifest = plane.publish(directed.cache_key(),
                                     directed.generate())
            assert len([a for a in manifest.arrays
                        if a.name.startswith("graph.")]) == 7
            g = shm.attach(manifest).graph
            assert g.in_ptr is not g.out_ptr
        finally:
            plane.close()

    def test_close_unlinks_and_resolve_falls_back(self, clean_plane_state):
        spec = GraphSpec.ga(nedges=200, alpha=2.5, seed=2)
        key = spec.cache_key()
        plane = shm.GraphPlane()
        manifest = plane.publish(key, spec.generate())
        assert f"/dev/shm/{manifest.segment}" in _shm_segments()
        # The publisher keeps no view of its own: a crew loop runs no
        # cell, so only a process that installed the manifest (a
        # worker) resolves the graph from the plane.
        assert shm.resolve(key) is None
        assert materialize_problem(spec)[1] in ("cache", "generated")
        shm.install_manifest(manifest)
        assert materialize_problem(spec)[1] == "shm"

        plane.close()
        plane.close()  # idempotent
        assert f"/dev/shm/{manifest.segment}" not in _shm_segments()
        # Once the worker's attachment is closed too, the vanished
        # segment is a stale manifest: resolution falls back.
        shm._close_attachments()
        assert materialize_problem(spec)[1] in ("cache", "generated")

    def test_stale_manifest_is_dropped(self, clean_plane_state):
        spec = GraphSpec.ga(nedges=200, alpha=3.0, seed=4)
        key = spec.cache_key()
        plane = shm.GraphPlane()
        manifest = plane.publish(key, spec.generate())
        plane.close()
        # Simulate the worker side: only a manifest, no local problem —
        # and its segment is already gone.
        shm.install_manifest(manifest)
        assert shm.resolve(key) is None
        assert key not in shm._INSTALLED_MANIFESTS

    def test_publishable_rejects_object_inputs(self):
        spec = GraphSpec.mrf(nedges=40, seed=1)
        problem = spec.generate()
        assert not shm.publishable(problem)  # carries a PairwiseMRF
        assert shm.publishable(GraphSpec.ga(nedges=100, alpha=2.0,
                                            seed=1).generate())


# ----------------------------------------------------------------------
# Per-process graph cache
# ----------------------------------------------------------------------
class TestGraphCache:
    def _problem(self, nedges, seed=0):
        return GraphSpec.ga(nedges=nedges, alpha=2.5, seed=seed).generate()

    def test_lru_is_byte_bounded(self):
        a = self._problem(100, seed=1)
        b = self._problem(100, seed=2)
        c = self._problem(100, seed=3)
        size = problem_nbytes(a)
        cache = GraphCache(capacity_bytes=int(size * 2.5))
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refresh a; b is now LRU
        cache.put("c", c)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is a
        assert cache.get("c") is c
        assert cache.used_bytes <= cache.capacity_bytes

    def test_zero_capacity_disables_caching(self):
        cache = GraphCache(capacity_bytes=0)
        cache.put("a", self._problem(100))
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_oversized_problem_is_never_admitted(self):
        problem = self._problem(200)
        cache = GraphCache(capacity_bytes=problem_nbytes(problem) - 1)
        cache.put("big", problem)
        assert len(cache) == 0

    def test_materialize_problem_hits_cache_second_time(
            self, clean_plane_state):
        spec = GraphSpec.ga(nedges=150, alpha=2.25, seed=9)
        first, _source = materialize_problem(spec)
        second, source = materialize_problem(spec)
        assert source == "cache"
        assert second is first
        for value in second.inputs.values():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable


# ----------------------------------------------------------------------
# Materialize-once corpus builds
def _unusable_shm(patch) -> None:
    """Shared memory as a host without a usable ``/dev/shm`` has it:
    every publish fails, as its first ``SharedMemory(create=True)``
    would."""
    def publish(self, key, problem):
        raise OSError("no usable shared memory")
    patch.setattr(shm.GraphPlane, "publish", publish)


# ----------------------------------------------------------------------
class TestCorpusGraphPlane:
    def test_parallel_build_materializes_each_graph_once(
            self, tmp_path, clean_plane_state):
        lines = []
        corpus = build_corpus(TINY_PROFILE,
                              store=ResultStore(tmp_path / "plane"),
                              workers=2, progress=lines.append,
                              obs="full", obs_dir=tmp_path / "obs")

        assert corpus.graph_plane
        # Every resolution, in whichever process, is one ``materialize``
        # span event, and worker sinks merge into the build's log: so
        # this is every generate() of the whole multi-process build.
        generated = sum(
            1 for e in read_all_events(tmp_path / "obs")
            if e.get("kind") == "span" and e.get("name") == "materialize"
            and e.get("source") == "generated")
        distinct = {p.spec.cache_key()
                    for p in ExperimentMatrix(TINY_PROFILE).corpus_runs()}
        assert corpus.premat_graphs == len(distinct)
        assert generated == len(distinct), \
            "a graph was materialized more than once"

        # Per-cell timing decomposition reaches traces and progress.
        executed = [r for r in corpus.runs if r.trace is not None]
        assert executed
        for run in executed:
            assert "materialize_s" in run.trace.meta
            assert "engine_s" in run.trace.meta
            assert run.trace.meta["graph_source"] in ("shm", "cache",
                                                      "generated")
        timing = corpus.timing_decomposition()
        assert timing is not None and timing["cells"] == len(executed)
        assert any(" mat=" in line and " graph=" in line for line in lines)
        assert "graph plane on" in corpus.summary()

        # And the no-shm build produces bit-identical vectors.
        with pytest.MonkeyPatch.context() as patch:
            _unusable_shm(patch)
            plain = build_corpus(TINY_PROFILE,
                                 store=ResultStore(tmp_path / "plain"),
                                 workers=2)
        assert not plain.graph_plane

        def vec(c):
            return [(v.tag, v.as_array().tolist()) for v in c.vectors()]

        assert vec(corpus) == vec(plain)

    def test_only_graphs_with_an_executing_cell_materialize(
            self, tmp_path, clean_plane_state):
        """A partially cached store: graph A has some cells cached and
        some not, graph C none, graph B (like every other) all. Exactly
        A and C get a materialize task, are generated once and are
        published; the vectors are the inline build's."""
        store = ResultStore(tmp_path / "store")
        inline = build_corpus(TINY_PROFILE, store=store)
        by_graph: dict = {}
        for planned in ExperimentMatrix(TINY_PROFILE).corpus_runs():
            if planned.spec.domain == "ga":
                by_graph.setdefault(planned.spec.cache_key(), []).append(
                    run_cache_key(planned, TINY_PROFILE))
        (a, a_keys), (b, _), (c, c_keys) = list(by_graph.items())[:3]
        assert len(a_keys) > 1
        for key in a_keys[::2] + c_keys:
            assert store.discard(key)
        # Forked workers would inherit this process's graphs.
        default_cache().clear()

        corpus = build_corpus(TINY_PROFILE, store=ResultStore(store.root),
                              workers=2, obs="full",
                              obs_dir=tmp_path / "obs")
        events = read_all_events(tmp_path / "obs")
        materialize_tasks = {e["task"] for e in events
                             if e.get("kind") == "task"
                             and e.get("task_kind") == "materialize"}
        generated = sum(
            1 for e in events
            if e.get("kind") == "span" and e.get("name") == "materialize"
            and e.get("source") == "generated")
        assert materialize_tasks == {f"materialize:{a}",
                                     f"materialize:{c}"}
        assert f"materialize:{b}" not in materialize_tasks
        assert generated == corpus.premat_graphs == 2
        assert corpus.n_executed == len(a_keys[::2] + c_keys)

        def vec(built):
            return [(v.tag, v.as_array().tolist())
                    for v in built.vectors()]

        assert vec(corpus) == vec(inline)

    def test_shm_unavailable_falls_back_cleanly(self, tmp_path,
                                                monkeypatch,
                                                clean_plane_state):
        _unusable_shm(monkeypatch)
        corpus = build_corpus(TINY_PROFILE,
                              store=ResultStore(tmp_path / "fallback"),
                              workers=2)
        assert not corpus.graph_plane
        assert corpus.premat_graphs == 0
        total = len(ExperimentMatrix(TINY_PROFILE).corpus_runs())
        assert len(corpus.runs) + len(corpus.failures) == total


# ----------------------------------------------------------------------
# Lifecycle under SIGINT (the CLI's first-^C graceful stop)
# ----------------------------------------------------------------------
class TestSigintLifecycle:
    def test_first_sigint_stops_build_without_leaking_segments(
            self, tmp_path):
        pre = _shm_segments()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env["REPRO_PROFILE"] = "smoke"
        # Slow every clustering cell down so the SIGINT lands mid-build
        # (the sleep fires inside run_computation, after the plane's
        # pre-materialization phase).
        env[INJECT_SLEEP_ENV] = "clustering-:0.4"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "corpus", "--workers", "2",
             "--progress"],
            cwd=str(tmp_path), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            time.sleep(4.0)
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=120)
        except Exception:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 130, (stdout, stderr)
        assert "interrupted" in stdout + stderr
        leaked = _shm_segments() - pre
        assert not leaked, f"SIGINT exit leaked shm segments: {leaked}"


# ----------------------------------------------------------------------
# Lifecycle under SIGKILL (no finally, no atexit: the resource tracker)
# ----------------------------------------------------------------------
class TestSigkillLifecycle:
    def test_a_killed_builders_segments_are_reclaimed(self, tmp_path):
        """SIGKILL only the builder, mid-build: its crew dies with it,
        and the resource tracker it leaves behind unlinks every segment
        the builder created."""
        pre = _shm_segments()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        # Every cell sleeps, so the build is still running at the kill.
        env[INJECT_SLEEP_ENV] = "-:0.5"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "corpus", "--profile", "smoke",
             "--workers", "2"],
            cwd=str(tmp_path), env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            # Kill once the published set has held still for a second:
            # the plane is up and no publish is half done.
            created, steady, deadline = set(), 0.0, time.monotonic() + 60.0
            while time.monotonic() < deadline and proc.poll() is None:
                now = _shm_segments() - pre
                if now != created:
                    created, steady = now, time.monotonic()
                elif created and time.monotonic() - steady >= 1.0:
                    break
                time.sleep(0.1)
            assert created and proc.poll() is None, "no segment published"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        created |= _shm_segments() - pre
        deadline = time.monotonic() + 10.0
        while created & _shm_segments() and time.monotonic() < deadline:
            time.sleep(0.1)
        leaked = created & _shm_segments()
        assert not leaked, f"a killed builder leaked shm segments: {leaked}"
