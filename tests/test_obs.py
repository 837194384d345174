"""Unit tests for the telemetry plane: registry, events, exporters,
merge semantics, and the progress-event/human-line contract."""

import json
from pathlib import Path

import pytest

from repro._util.errors import ValidationError
from repro.behavior.run import run_computation
from repro.obs.events import (
    EVENTS_FILENAME,
    EventLog,
    follow_events,
    merge_sinks,
    node_metrics_path,
    read_all_events,
    read_events,
    worker_sink_path,
    write_worker_metrics,
)
from repro.obs.export import (
    load_telemetry,
    write_telemetry_json,
)
from repro.obs.telemetry import (
    OBS_ENV,
    EngineObserver,
    Histogram,
    Telemetry,
    configure,
    deactivate,
    engine_observer,
    get_telemetry,
    peak_rss_bytes,
    resolve_obs_level,
    validate_obs_level,
)


DATA = Path(__file__).parent / "data"


def write_stats_fixture(obs_dir: Path) -> None:
    """An obs directory that fills every section of ``repro stats``:
    a metric snapshot, and node-stamped events including a failed cell
    whose ``cell_end`` has no graph source or timings."""
    tel = Telemetry(level="full")
    tel.inc("corpus_cells_total", 5.0, status="ok", source="run")
    tel.inc("corpus_cells_total", 2.0, status="ok", source="cache")
    tel.inc("corpus_cells_total", 1.0, status="failed", source="run")
    tel.inc("corpus_failures_total", 1.0, kind="timeout")
    tel.inc("corpus_retries_total", 2.0)
    tel.inc("corpus_cell_seconds_total", 8.0, phase="engine")
    tel.inc("corpus_cell_seconds_total", 2.0, phase="materialize")
    tel.inc("corpus_cell_seconds_total", 0.25, phase="store")
    for engine, phase, seconds in (("synchronous", "gather", 0.003),
                                   ("synchronous", "apply", 0.001),
                                   ("asynchronous", "scatter", 0.002)):
        for _ in range(3):
            tel.observe("engine_phase_seconds", seconds, engine=engine,
                        phase=phase)
    # A second series of one (engine, phase): the report merges them.
    tel.observe("engine_phase_seconds", 0.004, engine="synchronous",
                phase="gather", algorithm="pagerank")
    tel.inc("graph_resolutions_total", 9.0, source="shm")
    tel.inc("graph_resolutions_total", 1.0, source="generated")
    tel.inc("shm_published_bytes_total", float(3 << 20))
    tel.inc("shm_attach_failures_total", 1.0)
    tel.inc("health_trips_total", 1.0, condition="stall")
    tel.gauge_max("peak_rss_bytes", float(64 << 20), pid="11")
    tel.gauge_max("peak_rss_bytes", float(80 << 20), node="n1")
    tel.observe("engine_iteration_seconds", 0.1,
                engine="synchronous", algorithm="cc")
    tel.observe("ensemble_search_seconds", 0.2, metric="spread",
                size=4, strategy="beam")
    tel.observe("ensemble_search_seconds", 0.1, metric="spread",
                size=12, strategy="beam")
    tel.inc("ensemble_search_states_total", 70.0, metric="spread")
    tel.inc("ensemble_block_cache_total", 3.0, outcome="hit")
    tel.inc("ensemble_block_cache_total", 1.0, outcome="miss")
    tel.observe("ensemble_greedy_reevaluations", 6.0)
    write_telemetry_json(obs_dir, tel.snapshot(), run="deadbeef",
                         level="full", profile="fixture", workers=2,
                         build_seconds=1.5, interrupted=False)
    events = [
        {"kind": "node", "node": "n1", "action": "claim"},
        {"kind": "node", "node": "n1", "action": "stale-epoch-rejected"},
        {"kind": "cell_end", "node": "n1", "cell": "pagerank@b",
         "status": "ok", "source": "run", "graph_source": "shm",
         "attempts": 2, "materialize_s": 0.01, "engine_s": 0.5,
         "store_s": 0.002},
        {"kind": "cell_end", "node": "coordinator", "cell": "cc@a",
         "status": "failed", "source": "run", "failure_kind": "timeout",
         "attempts": 3},
        {"kind": "cell_end", "node": "n1", "cell": "als@a",
         "status": "ok", "source": "cache", "graph_source": "cache"},
        {"kind": "cell_end", "cell": "kmeans@c", "status": "degraded",
         "source": "run", "graph_source": "generated"},
    ]
    (obs_dir / EVENTS_FILENAME).write_text(
        "".join(json.dumps({"ts": 1.0, "pid": 1, **e}) + "\n"
                for e in events), encoding="utf-8")


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    yield
    deactivate()


class TestObsLevels:
    def test_validate_rejects_unknown(self):
        with pytest.raises(ValidationError):
            validate_obs_level("verbose")

    def test_explicit_level_wins(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "full")
        assert resolve_obs_level("off") == "off"
        # The sampled middle level left: naming it is an error, not a
        # silent fallback to one of the two that remain.
        with pytest.raises(ValidationError):
            resolve_obs_level("basic")
        with pytest.raises(ValidationError):
            Telemetry(level="basic")

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "full")
        assert resolve_obs_level(None) == "full"
        monkeypatch.setenv(OBS_ENV, "nonsense")
        assert resolve_obs_level(None) == "off"
        monkeypatch.delenv(OBS_ENV)
        assert resolve_obs_level(None) == "off"

    def test_peak_rss_is_positive(self):
        assert peak_rss_bytes() > 1 << 20  # a python process is >1 MiB


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram()
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0

    def test_nearest_rank_percentiles(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        # Nearest-rank on 100 values: rank(0.5) = round(49.5) = 50.
        assert h.percentile(0.50) == 51.0
        assert h.percentile(0.95) == 95.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 100.0

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.5) == 0.0

    def test_snapshot_bounds_sample(self):
        h = Histogram()
        for v in range(2_000):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 2_000
        assert len(snap["sample"]) <= 512

    def test_merge_snapshot_combines_exact_fields(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        a.observe(5.0)
        b.observe(3.0)
        a.merge_snapshot(b.snapshot())
        assert a.count == 3
        assert a.sum == 9.0
        assert a.min == 1.0
        assert a.max == 5.0

    def test_merge_empty_snapshot_is_noop(self):
        a = Histogram()
        a.observe(2.0)
        a.merge_snapshot(Histogram().snapshot())
        assert a.count == 1 and a.min == 2.0


class TestTelemetryRegistry:
    def test_off_level_is_inert(self):
        tel = Telemetry(level="off")
        tel.inc("c")
        tel.gauge_max("g", 5.0)
        tel.observe("h", 1.0)
        assert not tel.enabled
        assert tel.counter_value("c") == 0.0
        assert tel.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}

    def test_labeled_series_are_distinct(self):
        tel = Telemetry(level="full")
        tel.inc("cells", status="ok")
        tel.inc("cells", status="ok")
        tel.inc("cells", status="failed")
        assert tel.counter_value("cells", status="ok") == 2.0
        assert tel.counter_value("cells", status="failed") == 1.0
        assert tel.counter_total("cells") == 3.0

    def test_gauge_keeps_maximum(self):
        tel = Telemetry(level="full")
        tel.gauge_max("peak", 10.0)
        tel.gauge_max("peak", 4.0)
        tel.gauge_max("peak", 12.0)
        snap = tel.snapshot()
        assert snap["gauges"]["peak"][0]["value"] == 12.0

    def test_merge_snapshot_sums_counters_maxes_gauges(self):
        parent = Telemetry(level="full")
        parent.inc("cells", 2.0, status="ok")
        parent.gauge_max("peak_rss_bytes", 100.0)
        parent.observe("lat", 1.0)

        worker = Telemetry(level="full")
        worker.inc("cells", 3.0, status="ok")
        worker.gauge_max("peak_rss_bytes", 250.0)
        worker.observe("lat", 3.0)

        parent.merge_snapshot(worker.snapshot())
        assert parent.counter_value("cells", status="ok") == 5.0
        snap = parent.snapshot()
        assert snap["gauges"]["peak_rss_bytes"][0]["value"] == 250.0
        hist = parent.histogram("lat")
        assert hist.count == 2 and hist.sum == 4.0

    def test_merge_is_associative_on_registries(self):
        def fresh(n):
            t = Telemetry(level="full")
            t.inc("c", n, kind="x")
            t.gauge_max("g", n * 10.0)
            return t

        left = fresh(1)
        mid = fresh(2)
        mid.merge_snapshot(fresh(3).snapshot())
        left.merge_snapshot(mid.snapshot())

        right = fresh(1)
        right.merge_snapshot(fresh(2).snapshot())
        right.merge_snapshot(fresh(3).snapshot())

        assert (left.counter_value("c", kind="x")
                == right.counter_value("c", kind="x") == 6.0)
        assert left.snapshot()["gauges"] == right.snapshot()["gauges"]


class TestSpan:
    def test_measures_even_when_off(self):
        tel = Telemetry(level="off")
        with tel.span("work") as sp:
            pass
        assert sp.seconds >= 0.0
        assert tel.histogram("work_seconds") is None

    def test_records_histogram_and_late_labels(self):
        tel = Telemetry(level="full")
        with tel.span("materialize") as sp:
            sp.set(source="shm")
        hist = tel.histogram("materialize_seconds", source="shm")
        assert hist is not None and hist.count == 1

    def test_full_level_emits_span_event(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        tel = Telemetry(level="full", events=EventLog(log_path),
                        run_id="r1")
        with tel.span("store", algorithm="cc"):
            pass
        tel.close()
        events = list(read_events(log_path))
        assert len(events) == 1
        ev = events[0]
        assert ev["kind"] == "span"
        assert ev["name"] == "store"
        assert ev["algorithm"] == "cc"
        assert ev["run"] == "r1"
        assert ev["seconds"] >= 0.0

    def test_records_on_exception(self):
        tel = Telemetry(level="full")
        with pytest.raises(RuntimeError):
            with tel.span("engine_run"):
                raise RuntimeError("boom")
        assert tel.histogram("engine_run_seconds").count == 1


class TestEngineObserver:
    def test_off_returns_none(self):
        deactivate()
        assert engine_observer("synchronous", "cc") is None

    def test_sampling_rate_by_level(self, ga_problem):
        """Two levels, two rates: no observer at ``off``, every
        iteration timed at ``full``."""
        deactivate()
        run_computation("cc", ga_problem)
        assert get_telemetry().histogram(
            "engine_iteration_seconds", engine="synchronous",
            algorithm="cc") is None
        tel = configure("full")
        trace = run_computation("cc", ga_problem)
        assert tel.histogram(
            "engine_iteration_seconds", engine="synchronous",
            algorithm="cc").count == trace.n_iterations >= 2

    def test_iteration_totals_and_sampled_timing(self):
        tel = Telemetry(level="full")
        obs = EngineObserver(tel, "synchronous", "cc")
        obs.iteration(iteration=0, active=10, updates=10, edge_reads=40,
                      messages=20, seconds=0.5,
                      phases={"gather": 0.2, "apply": 0.3})
        obs.iteration(iteration=1, active=4, updates=4, edge_reads=16,
                      messages=8)  # untimed: totals only
        labels = {"engine": "synchronous", "algorithm": "cc"}
        assert tel.counter_value("engine_iterations_total",
                                 **labels) == 2.0
        assert tel.counter_value("engine_active_total", **labels) == 14.0
        assert tel.histogram("engine_iteration_seconds",
                             **labels).count == 1
        assert tel.histogram("engine_phase_seconds", phase="gather",
                             **labels).count == 1


class TestEventLog:
    def test_rotation_keeps_bounded_disk(self, tmp_path):
        path = tmp_path / "events.jsonl"
        max_bytes, backups = 2_000, 2
        log = EventLog(path, max_bytes=max_bytes, backups=backups)
        payload = "x" * 100
        for i in range(200):
            log.append({"kind": "t", "i": i, "pad": payload})
        log.close()
        files = [path, *(path.with_name(f"{path.name}.{g}")
                         for g in range(1, backups + 2))]
        existing = [f for f in files if f.exists()]
        # At most the live file + `backups` generations.
        assert len(existing) <= backups + 1
        total = sum(f.stat().st_size for f in existing)
        # One event of slack per file: rotation triggers post-append.
        assert total <= (backups + 1) * (max_bytes + 200)

    def test_rotated_generations_are_readable_oldest_first(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, max_bytes=500, backups=3)
        for i in range(40):
            log.append({"i": i, "pad": "y" * 50})
        log.close()
        events = read_all_events(tmp_path)
        ids = [e["i"] for e in events]
        assert ids == sorted(ids)  # oldest generation first
        assert ids[-1] == 39  # newest event retained

    def test_read_events_skips_torn_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "ok", "i": 1}) + "\n")
            fh.write('{"kind": "torn", "i"')  # killed mid-write
        events = list(read_events(path))
        assert [e["i"] for e in events] == [1]

    def test_missing_file_reads_empty(self, tmp_path):
        assert list(read_events(tmp_path / "nope.jsonl")) == []


class TestFollowEvents:
    @staticmethod
    def _append(path, *indices):
        with open(path, "a", encoding="utf-8") as fh:
            for i in indices:
                fh.write(json.dumps({"kind": "e", "i": i}) + "\n")

    def _follow(self, tmp_path, steps):
        """Follow *tmp_path*, running the next of *steps* every time the
        generator goes idle; stops once they are spent."""
        steps = iter(steps)

        def stop():
            step = next(steps, None)
            if step is None:
                return True
            step()
            return False

        return [e["i"] for e in
                follow_events(tmp_path, poll_s=0.0, stop=stop)]

    def test_starts_at_the_current_end(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._append(path, 0, 1, 2)
        seen = self._follow(tmp_path, [lambda: self._append(path, 3, 4),
                                       lambda: None])
        assert seen == [3, 4]  # not 0, 1, 2 again

    def test_rotated_and_late_logs_are_read_from_their_start(self,
                                                             tmp_path):
        path = tmp_path / "events.jsonl"
        self._append(path, 0)

        def rotate():
            path.rename(tmp_path / "events.jsonl.1")
            self._append(path, 1, 2)

        seen = self._follow(tmp_path, [rotate, lambda: None,
                                       lambda: None])
        assert seen == [1, 2]

        late = tmp_path / "late"
        late.mkdir()
        seen = self._follow(
            late, [lambda: self._append(late / "events.jsonl", 7),
                   lambda: None])
        assert seen == [7]


class TestMergeSinks:
    def test_merges_rotated_sinks_and_metrics_files(self, tmp_path):
        sink = worker_sink_path(tmp_path, 111)
        sink.parent.mkdir(parents=True)
        rotated = sink.with_name(sink.name + ".1")
        rotated.write_text(json.dumps({"kind": "cell_start", "i": 0})
                           + "\n", encoding="utf-8")
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "cell_end", "i": 1}) + "\n")
            fh.write('{"kind": "torn"')  # SIGKILL mid-write
        write_worker_metrics(
            node_metrics_path(tmp_path, "node-111"),
            {"counters": {"c": [{"labels": {}, "value": 2.0}]},
             "gauges": {}, "histograms": {}})

        main = EventLog(tmp_path / "events.jsonl")
        merged, snapshots = merge_sinks(tmp_path, main)
        main.close()

        assert merged == 2
        assert len(snapshots) == 1
        assert snapshots[0]["counters"]["c"][0]["value"] == 2.0
        events = read_all_events(tmp_path)
        # Rotated (older) sink content lands before the live sink's.
        assert [e["kind"] for e in events] == ["cell_start", "cell_end"]
        assert not sink.exists() and not rotated.exists()
        assert not sink.parent.exists()  # empty sink dir removed

    def test_no_sink_dir_is_noop(self, tmp_path):
        assert merge_sinks(tmp_path, None) == (0, [])

    def test_worker_metrics_overwrite_is_atomic(self, tmp_path):
        path = node_metrics_path(tmp_path, "n/5")
        write_worker_metrics(path, {"v": 1})
        write_worker_metrics(path, {"v": 2})
        assert json.loads(path.read_text(encoding="utf-8")) == {"v": 2}
        assert list(path.parent.glob("*.tmp")) == []


class TestExporters:
    def _snapshot(self):
        tel = Telemetry(level="full")
        tel.inc("corpus_cells_total", 3.0, status="ok")
        tel.gauge_max("peak_rss_bytes", 1024.0)
        tel.observe("engine_iteration_seconds", 0.25,
                    engine="synchronous")
        return tel.snapshot()

    def test_telemetry_json_roundtrip(self, tmp_path):
        write_telemetry_json(tmp_path, self._snapshot(), run="abc",
                             level="full")
        payload = load_telemetry(tmp_path)
        assert payload["schema"] == 1
        assert payload["run"] == "abc"
        counters = payload["metrics"]["counters"]
        assert counters["corpus_cells_total"][0]["value"] == 3.0

    def test_load_missing_or_corrupt_returns_none(self, tmp_path):
        assert load_telemetry(tmp_path) is None
        (tmp_path / "telemetry.json").write_text("{not json",
                                                 encoding="utf-8")
        assert load_telemetry(tmp_path) is None


class TestGlobalConfigure:
    def test_configure_then_deactivate(self, tmp_path):
        tel = configure("full", run_id="r9",
                        events_path=tmp_path / "events.jsonl")
        assert get_telemetry() is tel
        assert tel.enabled and tel.run_id == "r9"
        deactivate()
        assert not get_telemetry().enabled

    def test_context_rides_on_events(self, tmp_path):
        tel = configure("full", run_id="r1",
                        events_path=tmp_path / "events.jsonl")
        tel.set_context(cell="cc@ga", attempt=2)
        tel.emit("retry", failure_kind="timeout")
        tel.set_context()
        tel.emit("build_end")
        deactivate()
        events = read_all_events(tmp_path)
        assert events[0]["cell"] == "cc@ga"
        assert events[0]["attempt"] == 2
        assert "cell" not in events[1]


class TestProgressEventContract:
    """Satellite: the human progress line is a pure formatter over the
    structured progress event — they can never drift apart."""

    def _ok_run(self):
        from repro.behavior.run import run_computation
        from repro.experiments.config import GraphSpec
        from repro.experiments.corpus import CorpusRun

        spec = GraphSpec.ga(nedges=200, alpha=2.5, seed=3)
        trace = run_computation("cc", spec)
        return CorpusRun("cc", spec, trace, None, store_s=0.01)

    def _failed_run(self):
        from repro.experiments.config import GraphSpec
        from repro.experiments.corpus import CorpusRun
        from repro.experiments.failures import RunFailure

        spec = GraphSpec.ga(nedges=200, alpha=2.5, seed=3)
        failure = RunFailure(kind="crash", message="boom", attempts=2)
        return CorpusRun("cc", spec, None, None, failure=failure)

    def test_ok_line_matches_formatter(self):
        from repro.experiments.corpus import format_progress, progress_event

        line = format_progress(progress_event(self._ok_run(), 3, 10))
        assert line.startswith("[3/10] cc@")
        assert "status=ok source=run" in line
        assert "graph=" in line and "mat=" in line

    def test_failed_line_reports_taxonomy_kind(self):
        from repro.experiments.corpus import (
            format_progress,
            progress_event,
        )

        event = progress_event(self._failed_run(), 1, 10)
        assert event["status"] == "failed"
        assert event["failure_kind"] == "crash"
        assert "kind" not in event  # reserved for the event envelope
        line = format_progress(event)
        assert "status=failed kind=crash attempts=2" in line
        assert "boom" in line

    def test_event_is_json_clean(self):
        from repro.experiments.corpus import progress_event

        for run in (self._ok_run(), self._failed_run()):
            event = progress_event(run, 1, 2)
            assert json.loads(json.dumps(event)) == event

    def test_emitted_progress_event_formats_identically(self, tmp_path):
        """The event as read back from the log still renders the exact
        same human line (envelope fields do not interfere)."""
        from repro.experiments.corpus import (
            format_progress,
            progress_event,
        )

        run = self._ok_run()
        event = progress_event(run, 1, 2)
        tel = configure("full", run_id="r1",
                        events_path=tmp_path / "events.jsonl")
        tel.emit("progress", **event)
        deactivate()
        (logged,) = read_all_events(tmp_path)
        assert format_progress(logged) == format_progress(event)


class TestStatsRendering:
    def test_resolve_run_dir_accepts_parent(self, tmp_path):
        from repro.obs.stats import resolve_run_dir

        obs = tmp_path / "obs"
        obs.mkdir()
        write_telemetry_json(obs, {"counters": {}, "gauges": {},
                                   "histograms": {}})
        assert resolve_run_dir(obs) == obs
        assert resolve_run_dir(tmp_path) == obs
        with pytest.raises(ValidationError):
            resolve_run_dir(tmp_path / "nowhere")

    def test_render_stats_sections(self, tmp_path):
        from repro.obs.stats import render_stats

        tel = Telemetry(level="full")
        tel.inc("corpus_cells_total", 5.0, status="ok", source="run")
        tel.inc("corpus_cells_total", 1.0, status="failed", source="run")
        tel.inc("corpus_failures_total", 1.0, kind="timeout")
        tel.inc("corpus_cell_seconds_total", 8.0, phase="engine")
        tel.inc("corpus_cell_seconds_total", 2.0, phase="materialize")
        tel.inc("graph_resolutions_total", 9.0, source="shm")
        tel.inc("graph_resolutions_total", 1.0, source="generated")
        tel.gauge_max("peak_rss_bytes", float(64 << 20))
        tel.observe("engine_iteration_seconds", 0.1,
                    engine="synchronous", algorithm="cc")
        tel.observe("ensemble_search_seconds", 0.2, metric="spread",
                    size=4, strategy="beam")
        tel.inc("ensemble_search_states_total", 70.0, metric="spread")
        tel.inc("ensemble_search_states_total", 5.0, metric="coverage")
        write_telemetry_json(tmp_path, tel.snapshot(), run="deadbeef",
                             level="full")
        out = render_stats(tmp_path)
        assert "Cell outcomes" in out
        assert "Failure taxonomy" in out and "timeout" in out
        assert "Graph resolution" in out and "90.0%" in out
        assert "peak RSS: 64.0 MiB" in out
        assert "Iteration latency (sampled)" in out
        table = out[out.index("Ensemble search"):].splitlines()
        assert [c.strip() for c in table[1].split("|")] == [
            "metric", "strategy", "size", "searches", "total s"]
        assert "ensemble states scored: 75" in out

    @pytest.mark.parametrize("node", [None, "n1"])
    def test_text_report_is_pinned(self, tmp_path, node):
        """The text report is a formatter over ``stats_payload``; its
        bytes are pinned to the report the earlier, separately derived
        renderer printed for the same directory."""
        from repro.obs.stats import render_stats

        write_stats_fixture(tmp_path)
        name = "stats_report.txt" if node is None else "stats_report_n1.txt"
        expected = (DATA / name).read_text(encoding="utf-8")
        out = render_stats(tmp_path, node=node)
        assert out.replace(str(tmp_path), "<obs>") == expected

    def test_format_event_generic_and_progress(self):
        from repro.obs.stats import format_event

        line = format_event({"ts": 1_700_000_000.0, "kind": "shm",
                             "pid": 1, "action": "publish",
                             "bytes": 4096})
        assert "shm" in line and "action=publish" in line
        # Progress events reuse the corpus formatter.
        line = format_event({
            "ts": 1_700_000_000.0, "kind": "progress", "pid": 1,
            "done": 1, "total": 2, "algorithm": "cc", "label": "x",
            "source": "cache", "status": "ok"})
        assert "[1/2] cc@x: status=ok source=cache" in line
