"""Causal tracing, critical-path decomposition, and the bench-compare
gate: deterministic id derivation, span-tree reconstruction with orphan
detection, exact wall attribution on synthetic logs, threshold
semantics of ``repro bench compare``, and trace propagation through a
chaos (SIGKILLed-worker) corpus build."""

import json

import pytest

from repro.experiments.config import BuildOptions, ExperimentMatrix, Profile
from repro.experiments.corpus import build_corpus
from repro.experiments.results import ResultStore
from repro.obs.benchdiff import compare_artifacts, render_bench_compare
from repro.obs.critpath import CATEGORIES, critical_path
from repro.obs.events import read_all_events
from repro.obs.stats import stats_payload
from repro.obs.tracing import (
    TraceContext,
    build_span_tree,
    derive_id,
    derive_run_id,
    list_traces,
    render_trace,
)

TINY = Profile(
    name="tinytrace",
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

N_CELLS = len(list(ExperimentMatrix(TINY).corpus_runs()))


class TestDeterministicIds:
    def test_derive_id_is_stable_and_keyed(self):
        assert derive_id("a", 1) == derive_id("a", 1)
        assert derive_id("a", 1) != derive_id("a", 2)
        # Separator-resistant: ("ab", "c") must differ from ("a", "bc").
        assert derive_id("ab", "c") != derive_id("a", "bc")
        assert len(derive_id("x")) == 12

    def test_run_and_build_ids_rederive_across_processes(self):
        """The re-link mechanism: same (profile, seed) -> same ids, so
        a resume attaches to the original build's spans."""
        assert derive_run_id("p", 7) == derive_run_id("p", 7)
        assert derive_run_id("p", 7) != derive_run_id("p", 8)
        a = TraceContext.for_build("p", 7)
        b = TraceContext.for_build("p", 7)
        assert (a.trace_id, a.span_id) == (b.trace_id, b.span_id)
        assert a.parent_span_id is None
        assert a.child("cell", "k").span_id == b.child("cell", "k").span_id

    def test_child_links_to_parent(self):
        root = TraceContext.for_build("p", 7)
        cell = root.child("cell", "key123")
        assert cell.trace_id == root.trace_id
        assert cell.parent_span_id == root.span_id
        assert cell.span_id != root.span_id

    def test_dict_round_trip(self):
        ctx = TraceContext.for_build("p", 7).child("cell", "k")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        root = TraceContext.for_build("p", 7)
        out = root.to_dict()
        assert "parent" not in out
        assert TraceContext.from_dict(out) == root
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({"trace": "t"}) is None


def _synthetic_events(t0=1000.0):
    """A two-cell build with retries, a lease grant, and known gaps."""
    build = TraceContext.for_build("p", 1)
    cell_a = build.child("cell", "keyA")
    cell_b = build.child("cell", "keyB")
    phase = cell_a.child("engine_run", 1)
    return [
        {"kind": "build_start", "ts": t0, "profile": "p",
         **build.to_dict()},
        {"kind": "task", "ts": t0 + 0.5, "to": "leased",
         "task": "run:keyA", **build.child("task", "run:keyA").to_dict()},
        {"kind": "cell_start", "ts": t0 + 1.0, "cell": "a", "key": "keyA",
         "attempt": 1, **cell_a.to_dict()},
        {"kind": "span", "name": "engine_run", "ts": t0 + 3.5,
         "seconds": 2.0, **phase.to_dict()},
        {"kind": "cell_end", "ts": t0 + 4.0, "cell": "a", "status": "ok",
         "source": "executed", "materialize_s": 0.5, "engine_s": 2.0,
         "store_s": 0.5, "attempts": 1, **cell_a.to_dict()},
        {"kind": "task", "ts": t0 + 4.2, "to": "leased",
         "task": "run:keyB", **build.child("task", "run:keyB").to_dict()},
        {"kind": "cell_start", "ts": t0 + 5.0, "cell": "b", "key": "keyB",
         "attempt": 1, **cell_b.to_dict()},
        {"kind": "retry", "ts": t0 + 6.0, "cell": "b", "backoff_s": 0.5,
         "attempt": 1, **cell_b.to_dict()},
        {"kind": "cell_end", "ts": t0 + 9.0, "cell": "b", "status": "ok",
         "source": "executed", "materialize_s": 1.0, "engine_s": 2.0,
         "store_s": 0.5, "attempts": 2, **cell_b.to_dict()},
        {"kind": "build_end", "ts": t0 + 10.0, "seconds": 10.0,
         "profile": "p", **build.to_dict()},
    ]


class TestSpanTree:
    def test_reconstructs_one_connected_tree(self):
        events = _synthetic_events()
        tree = build_span_tree(events)
        assert tree.connected and not tree.orphans
        assert len(tree.roots) == 1
        root = tree.roots[0]
        assert root.name == "build p"
        names = sorted(c.name for c in root.children)
        assert names == ["a", "b", "task run:keyA", "task run:keyB"]
        cell_a = next(c for c in root.children if c.name == "a")
        assert [g.name for g in cell_a.children] == ["engine_run"]
        # The span event back-dates its open edge by its duration.
        assert cell_a.children[0].seconds == pytest.approx(2.0)

    def test_lost_parent_events_surface_as_orphans(self):
        events = [e for e in _synthetic_events()
                  if not (e.get("cell") == "a"
                          and e["kind"] in ("cell_start", "cell_end"))]
        tree = build_span_tree(events)
        assert not tree.connected
        assert [n.name for n in tree.orphans] == ["engine_run"]

    def test_trace_filter_and_listing(self):
        first = _synthetic_events(t0=1000.0)
        second = [dict(e) for e in _synthetic_events(t0=2000.0)]
        for e in second:
            e["trace"] = "ffffffffffff"
        traces = list_traces(first + second)
        assert traces == [first[0]["trace"], "ffffffffffff"]
        # Default: first trace; explicit id: only that trace's events.
        assert build_span_tree(first + second).trace_id == traces[0]
        tree = build_span_tree(first + second, "ffffffffffff")
        assert tree.n_events == len(second)

    def test_render_trace_reports_orphans_and_filters_cells(self):
        events = _synthetic_events()
        out = render_trace(events)
        assert "orphan spans: 0" in out
        assert "build p" in out and "engine_run" in out
        only_a = render_trace(events, cell="a")
        assert "engine_run" in only_a and "task run:keyB" not in only_a
        broken = [e for e in events
                  if not (e.get("cell") == "a"
                          and e["kind"] in ("cell_start", "cell_end"))]
        assert "ORPHANED SPANS" in render_trace(broken)
        assert "no spans found" in render_trace([])


class TestCriticalPath:
    def test_decomposition_sums_exactly_to_window(self):
        report = critical_path(_synthetic_events())
        decomp = report["decomposition"]
        assert set(decomp) == set(CATEGORIES)
        assert sum(decomp.values()) == pytest.approx(report["window_s"])
        assert report["window_s"] == pytest.approx(10.0)
        assert report["reported_wall_s"] == pytest.approx(10.0)

    def test_known_attribution(self):
        """Hand-walked attribution of the synthetic log: cell b's
        phases fill [5,9], the [4,5] gap splits at keyB's lease grant
        (4.2), cell a's phases fill [1,4], and the [0,1] head plus the
        [9,10] tail are queue-wait."""
        decomp = critical_path(_synthetic_events())["decomposition"]
        assert decomp["engine"] == pytest.approx(4.0)
        assert decomp["materialize"] == pytest.approx(1.5)
        assert decomp["store"] == pytest.approx(1.0)
        assert decomp["retry-backoff"] == pytest.approx(0.5)
        assert decomp["lease-latency"] == pytest.approx(0.8)
        assert decomp["queue-wait"] == pytest.approx(2.2)

    def test_chain_is_chronological(self):
        chain = critical_path(_synthetic_events())["chain"]
        cells = [seg["cell"] for seg in chain if seg.get("cell")]
        assert cells == ["a", "b"]
        bounds = [(seg["start"], seg["end"]) for seg in chain]
        assert bounds == sorted(bounds)

    def test_overlapping_cells_attribute_once(self):
        """Two fully overlapping cells: only the path-bounding one is
        attributed; the window never double-counts."""
        t0 = 100.0
        events = [
            {"kind": "build_start", "ts": t0},
            {"kind": "cell_start", "ts": t0, "cell": "x"},
            {"kind": "cell_start", "ts": t0, "cell": "y"},
            {"kind": "cell_end", "ts": t0 + 4.0, "cell": "x",
             "engine_s": 4.0, "status": "ok"},
            {"kind": "cell_end", "ts": t0 + 4.0, "cell": "y",
             "engine_s": 4.0, "status": "ok"},
            {"kind": "build_end", "ts": t0 + 4.0, "seconds": 4.0},
        ]
        report = critical_path(events)
        assert sum(report["decomposition"].values()) == \
            pytest.approx(4.0)
        assert report["decomposition"]["engine"] == pytest.approx(4.0)

    def test_straggler_threshold_is_nearest_rank(self):
        report = critical_path(_synthetic_events())
        # Two cells (3s, 4s): nearest-rank p95 is the 4s cell, so
        # nothing sits strictly beyond it.
        assert report["straggler_threshold_s"] == pytest.approx(4.0)
        assert report["stragglers"] == []


def _write_bench(root, speedup, fast_wall=1.0):
    root.mkdir(parents=True, exist_ok=True)
    (root / "BENCH_ensemble.json").write_text(json.dumps(
        {"spread": {"speedup": speedup, "best_wall_s": {"fast": fast_wall},
                    "label": "x"}}), encoding="utf-8")


def _write_engine_bench(root, monitor_overhead=1.08, speedup=2.8,
                        over_floor=2.5):
    root.mkdir(parents=True, exist_ok=True)
    (root / "BENCH_engine.json").write_text(json.dumps(
        {"speedup": {"pagerank/sync": speedup},
         "fused_step_over_floor": {"pagerank/sync": over_floor},
         "monitor_overhead": monitor_overhead,
         "workloads": {"pagerank/sync": {"arms": {
             "pull": {"best_s": 0.04, "edges_per_s": 6e7}}}}}),
        encoding="utf-8")


class TestBenchCompare:
    def test_ratio_regressions_warn_then_fail(self, tmp_path):
        _write_bench(tmp_path / "base", speedup=2.0)
        for new, status in ((1.9, "ok"), (1.7, "warn"), (1.4, "fail")):
            _write_bench(tmp_path / "cand", speedup=new)
            report = compare_artifacts(tmp_path / "base",
                                       tmp_path / "cand")
            entry = next(e for e in report["entries"]
                         if e["path"] == "spread.speedup")
            assert entry["status"] == status, (new, entry)
            assert report["failed"] == (status == "fail")
        assert "RESULT: FAIL" in render_bench_compare(report)

    def test_improvements_never_flag(self, tmp_path):
        _write_bench(tmp_path / "base", speedup=2.0, fast_wall=1.0)
        _write_bench(tmp_path / "cand", speedup=4.0, fast_wall=0.1)
        report = compare_artifacts(tmp_path / "base", tmp_path / "cand",
                                   strict=True)
        assert not report["failed"]
        assert all(e["status"] == "ok" for e in report["entries"])

    def test_wall_metrics_gate_only_under_strict(self, tmp_path):
        _write_bench(tmp_path / "base", fast_wall=1.0, speedup=2.0)
        _write_bench(tmp_path / "cand", fast_wall=3.0, speedup=2.0)
        lax = compare_artifacts(tmp_path / "base", tmp_path / "cand")
        wall = next(e for e in lax["entries"]
                    if e["path"] == "spread.best_wall_s.fast")
        assert wall["status"] == "info" and not lax["failed"]
        strict = compare_artifacts(tmp_path / "base", tmp_path / "cand",
                                   strict=True)
        wall = next(e for e in strict["entries"]
                    if e["path"] == "spread.best_wall_s.fast")
        assert wall["status"] == "fail" and strict["failed"]

    def test_new_missing_and_skipped(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        _write_bench(base, speedup=2.0)
        cand.mkdir()
        (cand / "BENCH_ensemble.json").write_text(json.dumps(
            {"spread": {"best_wall_s": {"fast": 1.0}},
             "coverage": {"speedup": 9.0}}),
            encoding="utf-8")
        report = compare_artifacts(base, cand)
        by_path = {e["path"]: e["status"] for e in report["entries"]}
        assert by_path["spread.speedup"] == "missing"
        assert by_path["coverage.speedup"] == "new"
        assert not report["failed"]
        # Artifacts absent on either side are skipped, not failed.
        assert "BENCH_engine.json" in report["skipped"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main
        _write_bench(tmp_path / "base", speedup=2.0)
        _write_bench(tmp_path / "cand", speedup=1.0)
        assert main(["bench", "compare", str(tmp_path / "base"),
                     str(tmp_path / "cand")]) == 1
        assert main(["bench", "compare", str(tmp_path / "base"),
                     str(tmp_path / "base")]) == 0
        capsys.readouterr()

    def test_engine_ratios_are_gated(self, tmp_path, capsys):
        """The engine artifact's three ratios fail the command, not
        only its (informational) walls: a monitor 30 % dearer, a fused
        step 30 % further from its floor, a speedup 30 % smaller."""
        from repro.cli import main
        base = tmp_path / "base"
        _write_engine_bench(base)
        assert main(["bench", "compare", str(base), str(base)]) == 0
        for n, moved in enumerate((dict(monitor_overhead=1.08 * 1.3),
                                   dict(over_floor=2.5 * 1.3),
                                   dict(speedup=2.8 * 0.7))):
            cand = tmp_path / f"cand{n}"
            _write_engine_bench(cand, **moved)
            report = compare_artifacts(base, cand)
            failed = [e["path"] for e in report["entries"]
                      if e["status"] == "fail"]
            assert len(failed) == 1, (moved, failed)
            assert main(["bench", "compare", str(base), str(cand)]) == 1
        capsys.readouterr()

    def test_named_artifact_absent_from_either_side_fails(self, tmp_path,
                                                          capsys):
        from repro.cli import main
        base, cand = tmp_path / "base", tmp_path / "cand"
        _write_bench(base, speedup=2.0)
        cand.mkdir()
        report = compare_artifacts(base, cand,
                                   artifacts=("BENCH_ensemble.json",))
        (entry,) = report["entries"]
        assert entry["status"] == "fail" and report["failed"]
        assert entry["note"] == "artifact absent from candidate"
        assert report["skipped"] == []
        assert main(["bench", "compare", str(base), str(base),
                     "--artifact", "nope.json"]) == 1
        out = capsys.readouterr().out
        assert "artifact absent from baseline and candidate" in out
        assert "RESULT: FAIL" in out


class TestChaosTracePropagation:
    """On a chaos build with SIGKILLed workers and re-dispatched
    attempts, the trace is one connected tree per cell with zero
    orphans, and the critical path accounts for the wall."""

    def test_killed_and_resumed_build_stays_connected(
            self, tmp_path, monkeypatch):
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        for i in range(2):
            (token_dir / f"token-{i}").touch()
        monkeypatch.setenv("REPRO_CHAOS_KILL", f"{token_dir}:1.0")

        store = ResultStore(tmp_path / "cache")
        obs_dir = tmp_path / "obs"
        corpus = None
        for _attempt in range(6):
            corpus = build_corpus(TINY, store=store, workers=2,
                                  options=BuildOptions(
                                      resume=True, retries=0),
                                  obs="full", obs_dir=obs_dir)
            if not corpus.unexpected_failures:
                break
        assert corpus is not None and not corpus.unexpected_failures
        assert not list(token_dir.iterdir()), \
            "chaos kills never fired — the harness tested nothing"

        events = read_all_events(obs_dir)
        # The kills landed on cells, and each killed cell started
        # again whole on another worker.
        killed = {e["task"] for e in events
                  if e.get("kind") == "scheduler"
                  and e.get("action") == "worker-died"}
        assert killed and all(t.startswith("run:") for t in killed), \
            killed
        starts = [e.get("key") for e in events
                  if e.get("kind") == "cell_start"]
        for task in killed:
            assert starts.count(task[len("run:"):]) >= 2, task
        # Every build (crashed or resumed) derived the same ids, so
        # the whole log is one trace with one root and no orphans.
        assert len(list_traces(events)) == 1
        tree = build_span_tree(events)
        assert tree.connected, \
            [f"{n.name} missing {n.parent_id}" for n in tree.orphans]
        assert len(tree.roots) == 1
        root = tree.roots[0]
        assert root.span_id == \
            TraceContext.for_build(TINY.name, TINY.seed).span_id
        cell_spans = {c.name: c for c in root.children
                      if c.kind in ("cell_start", "cell_end")}
        assert len(cell_spans) == N_CELLS
        # Re-dispatched attempts re-derived the cell span: every
        # phase span parents straight to its cell, none dangle.
        for cell in cell_spans.values():
            for phase in cell.children:
                assert phase.parent_id == cell.span_id

        # Acceptance: decomposition within 10% of the reported wall.
        report = critical_path(events)
        total = sum(report["decomposition"].values())
        assert total == pytest.approx(report["window_s"])
        assert abs(total - report["reported_wall_s"]) <= \
            0.10 * report["reported_wall_s"] + 0.05

        # The JSON stats payload carries the same story end to end.
        payload = stats_payload(obs_dir)
        assert payload["meta"].get("profile") == TINY.name
        assert len(payload["cells"]) >= N_CELLS
        assert payload["n_events"] == len(events)
