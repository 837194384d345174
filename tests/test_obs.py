"""Unit tests for the telemetry plane: spans, events, sink merge, the
stats fold, and the progress-event/human-line contract."""

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
    read_all_events,
    read_events,
    worker_sink_path,
)
from repro.obs.telemetry import (
    ITERATION_SAMPLES,
    OBS_ENV,
    EngineObserver,
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

MiB = 1 << 20


def _span(name, **fields):
    return {"kind": "span", "name": name, **fields}


#: Events that fill every section of ``repro stats``: a build's start
#: and end, node-stamped cells (one failed, with no graph source or
#: timings; one from the cache), retries, graph resolutions, engine
#: runs on two engines, shm traffic, a watchdog trip, ensemble
#: searches, and peak RSS from two processes.
STATS_FIXTURE = [
    {"kind": "build_start", "run": "deadbeef", "level": "full",
     "profile": "fixture", "workers": 2, "planned": 4, "pid": 11},
    {"kind": "node", "node": "n1", "action": "claim", "pid": 7},
    {"kind": "node", "node": "n1", "action": "stale-epoch-rejected",
     "pid": 7},
    *[_span("materialize", source="shm", node="n1", pid=7)
      for _ in range(9)],
    _span("materialize", source="generated", pid=12),
    _span("engine_run", algorithm="cc", engine="synchronous",
          iterations=3, iteration_s=[0.1, 0.1, 0.1],
          phase_s={"gather": 0.009, "apply": 0.003}, pid=12),
    _span("engine_run", algorithm="pagerank", engine="synchronous",
          iterations=1, iteration_s=[0.05],
          phase_s={"gather": 0.004}, node="n1", pid=7),
    _span("engine_run", algorithm="pagerank", engine="asynchronous",
          iterations=3, iteration_s=[0.002, 0.002, 0.002],
          phase_s={"scatter": 0.006}, node="n1", pid=7),
    {"kind": "shm", "action": "publish", "bytes": 3 * MiB, "pid": 11},
    {"kind": "shm", "action": "attach-failed", "pid": 12},
    {"kind": "health", "condition": "stall", "pid": 12},
    {"kind": "retry", "cell": "cc@a", "failure_kind": "timeout",
     "node": "coordinator", "pid": 12},
    {"kind": "retry", "cell": "cc@a", "failure_kind": "timeout",
     "node": "coordinator", "pid": 12},
    {"kind": "cell_end", "node": "n1", "cell": "pagerank@b",
     "status": "ok", "source": "run", "graph_source": "shm",
     "attempts": 2, "materialize_s": 2.0, "engine_s": 8.0,
     "store_s": 0.25, "peak_rss_bytes": 80 * MiB, "pid": 7},
    {"kind": "cell_end", "node": "coordinator", "cell": "cc@a",
     "status": "failed", "source": "run", "failure_kind": "timeout",
     "attempts": 3, "pid": 12},
    {"kind": "cell_end", "node": "n1", "cell": "als@a",
     "status": "ok", "source": "cache", "graph_source": "cache",
     "pid": 7},
    {"kind": "cell_end", "cell": "kmeans@c", "status": "degraded",
     "source": "run", "graph_source": "generated", "materialize_s": 0.0,
     "engine_s": 0.0, "store_s": 0.0, "pid": 12},
    _span("ensemble_search", metric="spread", strategy="beam", size=4,
          seconds=0.2, states=70, cache_hits=3, cache_misses=1, pid=11),
    _span("ensemble_search", metric="spread", strategy="beam", size=12,
          seconds=0.1, states=0, cache_hits=0, cache_misses=0, pid=11),
    _span("ensemble_search", metric="coverage", strategy="greedy",
          size=5, seconds=0.05, states=35, cache_hits=0, cache_misses=0,
          reevaluations=30, pid=11),
    {"kind": "build_end", "runs": 3, "failures": 1,
     "interrupted": False, "seconds": 1.5, "peak_rss_bytes": 64 * MiB,
     "pid": 11},
]


def write_events(obs_dir: Path, events: "list[dict]") -> None:
    obs_dir.mkdir(parents=True, exist_ok=True)
    (obs_dir / EVENTS_FILENAME).write_text(
        "".join(json.dumps({"ts": 1.0, "pid": 1, **e}) + "\n"
                for e in events), encoding="utf-8")


def write_stats_fixture(obs_dir: Path) -> None:
    """An obs directory, written as events only, that fills every
    section of ``repro stats``."""
    write_events(obs_dir, STATS_FIXTURE)


def _fixture_dir(tmp_path: Path) -> Path:
    write_stats_fixture(tmp_path)
    return tmp_path


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


class TestTelemetryRegistry:
    def test_off_level_is_inert(self, tmp_path):
        """Off means no event at all, spans included, even with a sink."""
        log_path = tmp_path / "events.jsonl"
        tel = Telemetry(level="off", events=EventLog(log_path))
        tel.emit("cell_end", status="ok")
        with tel.span("engine_run") as sp:
            sp.set(iterations=3)
        tel.close()
        assert not tel.enabled
        assert list(read_events(log_path)) == []


class TestSpan:
    def test_measures_even_when_off(self):
        tel = Telemetry(level="off")
        with tel.span("work") as sp:
            assert tel.current_span is sp
        assert sp.seconds >= 0.0
        assert tel.current_span is None

    def test_late_labels_ride_on_the_span_event(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        tel = Telemetry(level="full", events=EventLog(log_path))
        with tel.span("materialize") as sp:
            sp.set(source="shm")
        tel.close()
        (event,) = read_events(log_path)
        assert event["name"] == "materialize"
        assert event["source"] == "shm"

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

    def test_records_on_exception(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        tel = Telemetry(level="full", events=EventLog(log_path))
        with pytest.raises(RuntimeError):
            with tel.span("engine_run"):
                raise RuntimeError("boom")
        tel.close()
        (event,) = read_events(log_path)
        assert event["name"] == "engine_run"
        assert tel.current_span is None


def _engine_runs(obs_dir):
    return [e for e in read_all_events(obs_dir)
            if e.get("kind") == "span" and e.get("name") == "engine_run"]


class TestEngineObserver:
    def test_off_returns_none(self):
        deactivate()
        assert engine_observer() is None

    def test_sampling_rate_by_level(self, ga_problem, tmp_path):
        """Two levels, two rates: no observer at ``off``, every
        iteration timed at ``full`` — into one ``engine_run`` event."""
        deactivate()
        trace = run_computation("cc", ga_problem)
        configure("full", events_path=tmp_path / "events.jsonl")
        run_computation("cc", ga_problem)
        deactivate()
        (event,) = _engine_runs(tmp_path)
        assert event["algorithm"] == "cc"
        assert event["engine"] == "synchronous"
        assert event["iterations"] == trace.n_iterations >= 2
        assert len(event["iteration_s"]) == trace.n_iterations
        assert set(event["phase_s"]) == {"gather", "apply", "scatter"}

    def test_iteration_totals_and_sampled_timing(self):
        tel = Telemetry(level="full")
        obs = EngineObserver(tel)
        n = 3 * ITERATION_SAMPLES + 1
        for i in range(n):
            obs.iteration(float(i), {"gather": 0.25, "apply": 0.5})
        summary = obs.summary()
        assert summary["iterations"] == n
        assert summary["phase_s"] == {"gather": 0.25 * n, "apply": 0.5 * n}
        # A bounded, evenly strided sample that starts at the first.
        sample = summary["iteration_s"]
        assert len(sample) <= ITERATION_SAMPLES
        assert sample[0] == 0.0 and sample == sorted(sample)
        assert "pull_iterations" not in summary  # no direction decided
        with tel.span("engine_run") as span:
            obs.finish()
        assert span.labels["iterations"] == n

    def test_direction_counts_and_switches(self):
        obs = EngineObserver(Telemetry(level="full"))
        for mode, fraction, switched in (("pull", 0.9, False),
                                         ("pull", 0.6, False),
                                         ("push", 0.1, True)):
            obs.direction(mode=mode, active_fraction=fraction,
                          switched=switched)
        summary = obs.summary()
        assert summary["pull_iterations"] == 2
        assert summary["push_iterations"] == 1
        assert summary["switches"] == [["push", 0.1]]


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
    def test_merges_rotated_sinks(self, tmp_path):
        sink = worker_sink_path(tmp_path, 111)
        sink.parent.mkdir(parents=True)
        rotated = sink.with_name(sink.name + ".1")
        rotated.write_text(json.dumps({"kind": "cell_start", "i": 0})
                           + "\n", encoding="utf-8")
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "cell_end", "i": 1}) + "\n")
            fh.write('{"kind": "torn"')  # SIGKILL mid-write

        main = EventLog(tmp_path / "events.jsonl")
        merged = merge_sinks(tmp_path, main)
        main.close()

        assert merged == 2
        events = read_all_events(tmp_path)
        # Rotated (older) sink content lands before the live sink's.
        assert [e["kind"] for e in events] == ["cell_start", "cell_end"]
        assert not sink.exists() and not rotated.exists()
        assert not sink.parent.exists()  # empty sink dir removed

    def test_no_sink_dir_is_noop(self, tmp_path):
        assert merge_sinks(tmp_path, None) == 0


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
        write_events(obs, [{"kind": "build_start"}])
        assert resolve_run_dir(obs) == obs
        assert resolve_run_dir(tmp_path) == obs
        with pytest.raises(ValidationError):
            resolve_run_dir(tmp_path / "nowhere")

    def test_render_stats_sections(self, tmp_path):
        from repro.obs.stats import render_stats

        write_stats_fixture(tmp_path)
        out = render_stats(tmp_path)
        assert "Cell outcomes" in out
        assert "Failure taxonomy" in out and "timeout" in out
        assert "Graph resolution" in out and "90.0%" in out
        assert "peak RSS: 80.0 MiB" in out
        assert "Iteration latency (sampled)" in out
        table = out[out.index("Ensemble search"):].splitlines()
        assert [c.strip() for c in table[1].split("|")] == [
            "metric", "strategy", "size", "searches", "total s"]
        assert "ensemble states scored: 105" in out
        assert "mean 6.0/step over 5 steps" in out
        assert "log: partial" not in out

    @pytest.mark.parametrize("node", [None, "n1"])
    def test_text_report_is_pinned(self, tmp_path, node):
        """The text report is a fold over the event log; its bytes are
        pinned to the golden file this renderer printed for the
        fixture (re-record by rendering, never by hand)."""
        from repro.obs.stats import render_stats

        write_stats_fixture(tmp_path)
        name = "stats_report.txt" if node is None else "stats_report_n1.txt"
        expected = (DATA / name).read_text(encoding="utf-8")
        out = render_stats(tmp_path, node=node)
        assert out.replace(str(tmp_path), "<obs>") == expected

    def test_cell_outcomes_total_the_cells_table(self, tmp_path):
        """Both come from the same ``cell_end`` events, so they agree."""
        from repro.obs.stats import stats_payload

        write_stats_fixture(tmp_path)
        for node in (None, "n1"):
            payload = stats_payload(tmp_path, node=node)
            assert sum(payload["outcomes"].values()) == len(
                payload["cells"]) > 0
            assert payload["from_cache"] == sum(
                c["source"] == "cache" for c in payload["cells"])

    def test_partial_log_is_flagged(self, tmp_path):
        """Rotation drops the oldest generation, and with it the
        ``build_start``: the report and the payload say so."""
        from repro.obs.stats import render_stats, stats_payload

        log = EventLog(tmp_path / EVENTS_FILENAME, max_bytes=300,
                       backups=1)
        log.append({"kind": "build_start", "profile": "p", "pid": 1})
        for i in range(20):
            log.append({"kind": "cell_end", "cell": f"c{i}",
                        "status": "ok", "source": "run", "pid": 1})
        log.close()
        payload = stats_payload(tmp_path)
        assert payload["complete"] is False
        assert 0 < len(payload["cells"]) < 20
        assert "log: partial" in render_stats(tmp_path)

        whole = tmp_path / "whole"
        log = EventLog(whole / EVENTS_FILENAME, max_bytes=1 << 20)
        log.append({"kind": "build_start", "profile": "p", "pid": 1})
        log.append({"kind": "cell_end", "cell": "c", "status": "ok",
                    "pid": 1})
        log.close()
        assert stats_payload(whole)["complete"] is True
        assert "log: partial" not in render_stats(whole)

    def test_peak_rss_rows_name_node_and_pid(self, tmp_path):
        """Two processes on one node get a row each, each at its own
        maximum: the node name alone would collide."""
        from repro.obs.stats import render_stats, stats_payload

        write_events(tmp_path, [
            {"kind": "build_start", "pid": 1},
            {"kind": "cell_end", "node": "n1", "pid": 101,
             "peak_rss_bytes": 10 * MiB},
            {"kind": "cell_end", "node": "n1", "pid": 101,
             "peak_rss_bytes": 30 * MiB},
            {"kind": "node", "action": "stop", "node": "n1", "pid": 102,
             "peak_rss_bytes": 20 * MiB},
            {"kind": "build_end", "pid": 1, "peak_rss_bytes": 5 * MiB},
        ])
        assert stats_payload(tmp_path)["peak_rss"] == [
            {"node": "n1", "pid": 101, "bytes": 30 * MiB},
            {"node": "n1", "pid": 102, "bytes": 20 * MiB},
            {"node": None, "pid": 1, "bytes": 5 * MiB}]
        assert ("peak RSS by worker: n1 pid 101=30.0 MiB, "
                "n1 pid 102=20.0 MiB, pid 1=5.0 MiB") in render_stats(
                    tmp_path)

    def test_fold_sums_counts_and_keeps_each_process_peak(self, tmp_path):
        """What the registry's merge did (counters summed, peaks
        maxed) the fold does over the events of every process."""
        from repro.obs.stats import stats_payload

        payload = stats_payload(_fixture_dir(tmp_path))
        assert payload["outcomes"] == {"ok": 2, "failed": 1,
                                       "degraded": 1}
        assert payload["from_cache"] == 1
        assert payload["failures"] == {"timeout": 1}
        assert payload["retries"] == 2
        assert payload["phases"] == {"materialize": 2.0, "engine": 8.0,
                                     "store": 0.25}
        assert payload["graph_sources"] == {"shm": 9, "generated": 1}
        assert payload["shm"] == {"publishes": 1, "bytes": 3 * MiB,
                                  "attach_failures": 1}
        assert payload["health_trips"] == {"stall": 1}
        assert payload["search"] == {
            "states": 105, "cache_hits": 3, "cache_misses": 1,
            "greedy_steps": 5, "reevaluations": 30}
        assert [(r["engine"], r["phase"], r["samples"])
                for r in payload["engine_phases"]] == [
            ("asynchronous", "scatter", 3), ("synchronous", "apply", 3),
            ("synchronous", "gather", 4)]
        assert {p["pid"]: p["bytes"] for p in payload["peak_rss"]} == {
            7: 80 * MiB, 11: 64 * MiB}

    def test_fold_ignores_event_order(self, tmp_path):
        """Sinks merge in any order; the fold is sums and maxima, so
        every section but the (sorted) cell list reads the same."""
        from repro.obs.stats import stats_payload

        body = STATS_FIXTURE[1:-1]
        write_events(tmp_path / "a", [STATS_FIXTURE[0], *body,
                                      STATS_FIXTURE[-1]])
        write_events(tmp_path / "b", [STATS_FIXTURE[0], *body[::-1],
                                      STATS_FIXTURE[-1]])
        a, b = (stats_payload(tmp_path / d) for d in "ab")
        a.pop("obs_dir")
        b.pop("obs_dir")
        assert a == b

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
