"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from tests.conftest import discard_smoke_cell


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlgorithms:
    def test_lists_all(self, capsys):
        code, out, _err = run_cli(capsys, "algorithms")
        assert code == 0
        for name in ("pagerank", "als", "dd", "kmeans"):
            assert name in out


class TestRun:
    def test_run_pagerank(self, capsys):
        code, out, _err = run_cli(
            capsys, "run", "pagerank", "--nedges", "500", "--alpha", "2.5")
        assert code == 0
        assert "pagerank@ga" in out
        assert "behavior:" in out
        assert "activity shape:" in out

    def test_run_fixed_structure_domain(self, capsys):
        code, out, _err = run_cli(capsys, "run", "jacobi", "--nrows", "30")
        assert code == 0
        assert "jacobi@matrix" in out

    def test_run_writes_json(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, out, _err = run_cli(
            capsys, "run", "sssp", "--nedges", "300", "--json", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["algorithm"] == "sssp"

    def test_unknown_algorithm_fails_cleanly(self, capsys):
        code, _out, err = run_cli(capsys, "run", "quantumrank")
        assert code == 1
        assert "unknown algorithm" in err

    def test_max_iterations_flag(self, capsys):
        code, out, _err = run_cli(
            capsys, "run", "kmeans", "--nedges", "400",
            "--max-iterations", "3")
        assert code == 0
        assert "iterations=3" in out

    def test_injected_fault_strict_fails(self, capsys):
        code, _out, err = run_cli(
            capsys, "run", "pagerank", "--nedges", "300",
            "--inject-fault", "nan@2")
        assert code == 1
        assert "numeric guard" in err

    def test_injected_fault_degrade_flags_trace(self, capsys):
        code, out, _err = run_cli(
            capsys, "run", "pagerank", "--nedges", "300",
            "--inject-fault", "nan@2", "--health-policy", "degrade")
        assert code == 0
        assert "DEGRADED" in out
        assert "numeric" in out

    def test_health_check_cadence_is_the_constant(self, capsys,
                                                  monkeypatch):
        from repro.engine import health

        monkeypatch.setattr(health, "CHECK_EVERY", 3)
        code, _out, err = run_cli(
            capsys, "run", "pagerank", "--nedges", "300",
            "--inject-fault", "nan@1")
        assert code == 1
        assert "numeric guard tripped at iteration 3" in err


class TestCharacterize:
    def test_table(self, capsys):
        code, out, _err = run_cli(
            capsys, "characterize", "cc",
            "--sizes", "300", "600", "--alphas", "2.0", "3.0")
        assert code == 0
        assert "behavior across structures" in out
        assert out.count("\n") > 4

    def test_rejects_fixed_structure(self, capsys):
        code, _out, err = run_cli(capsys, "characterize", "jacobi")
        assert code == 2
        assert "fixed graph structure" in err


class TestReport:
    def test_assembles_artifacts(self, capsys, tmp_path):
        (tmp_path / "fig01.txt").write_text("series A\n")
        (tmp_path / "table2.txt").write_text("rows\n")
        out_file = tmp_path / "report.md"
        code, out, _err = run_cli(
            capsys, "report", "--artifacts", str(tmp_path),
            "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert "## fig01" in text and "series A" in text
        assert "## table2" in text

    def test_stdout_mode(self, capsys, tmp_path):
        (tmp_path / "x.txt").write_text("hello\n")
        code, out, _err = run_cli(capsys, "report", "--artifacts",
                                  str(tmp_path))
        assert code == 0
        assert "hello" in out

    def test_missing_directory(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "report", "--artifacts", str(tmp_path / "nope"))
        assert code == 1
        assert "no artifact directory" in err

    def test_store_metadata_section(self, capsys, tmp_path):
        from repro.behavior.trace import RunTrace
        from repro.experiments.results import ResultStore

        trace_path = tmp_path / "trace.json"
        code, _out, _err = run_cli(
            capsys, "run", "sssp", "--nedges", "300",
            "--json", str(trace_path))
        assert code == 0
        trace = RunTrace.from_dict(json.loads(trace_path.read_text()))
        store = ResultStore(tmp_path / "store")
        store.save("sssp-test", trace)

        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        (artifacts / "fig.txt").write_text("data\n")
        code, out, _err = run_cli(
            capsys, "report", "--artifacts", str(artifacts),
            "--store", str(tmp_path / "store"))
        assert code == 0
        assert "## run-metadata" in out
        assert "1 cached traces" in out
        assert "timeout enforced" in out

    def test_empty_store_omits_metadata(self, capsys, tmp_path):
        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        (artifacts / "fig.txt").write_text("data\n")
        code, out, _err = run_cli(
            capsys, "report", "--artifacts", str(artifacts),
            "--store", str(tmp_path / "empty-store"))
        assert code == 0
        assert "run-metadata" not in out


class TestObsCommands:
    def test_run_with_obs_then_stats_and_tail(self, capsys, tmp_path):
        obs_dir = tmp_path / "obs"
        code, out, _err = run_cli(
            capsys, "run", "cc", "--nedges", "200",
            "--obs", "full", "--obs-dir", str(obs_dir))
        assert code == 0
        assert "harness: graph_source=" in out
        assert "timeout_enforced=" in out
        assert f"telemetry: {obs_dir}" in out
        # The event log is the one record.
        assert sorted(p.name for p in obs_dir.iterdir()) == [
            "events.jsonl"]

        code, out, _err = run_cli(capsys, "stats", str(obs_dir))
        assert code == 0
        assert "telemetry:" in out
        assert "Iteration latency (sampled)" in out

        code, out, _err = run_cli(capsys, "tail", str(obs_dir))
        assert code == 0
        assert "run_start" in out and "run_end" in out

        code, out, _err = run_cli(
            capsys, "tail", str(obs_dir), "--raw", "-n", "2")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["kind"]

    def test_run_obs_off_is_silent(self, capsys, tmp_path):
        obs_dir = tmp_path / "obs"
        code, out, _err = run_cli(
            capsys, "run", "cc", "--nedges", "200",
            "--obs", "off", "--obs-dir", str(obs_dir))
        assert code == 0
        assert "telemetry:" not in out
        assert not obs_dir.exists()

    def test_stats_without_telemetry_fails(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "stats", str(tmp_path))
        assert code == 1
        assert "no telemetry" in err

    def test_invalid_obs_level_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "run", "cc", "--obs", "loud")


class TestCorpusAndDesign:
    @pytest.fixture()
    def tiny_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return tmp_path

    def test_corpus_smoke_roundtrip_workers2(self, capsys, tiny_cache):
        """Cold multi-process build, then a resumed build that performs
        zero re-executions — the full resume path."""
        code, out, _err = run_cli(
            capsys, "corpus", "--profile", "smoke", "--workers", "2",
            "--progress")
        assert code == 0  # only by-design memory failures
        assert "status=ok source=run" in out
        assert "kind=memory" in out  # AD over budget, structured line
        assert "executed 220, cached 0" in out

        code, out, _err = run_cli(
            capsys, "corpus", "--profile", "smoke", "--workers", "2",
            "--progress", "--resume")
        assert code == 0
        assert "executed 0, cached 220" in out
        assert "source=run" not in out  # zero re-executions

    def test_corpus_crash_exits_nonzero_then_resume_repairs(
            self, capsys, warm_smoke_cache, monkeypatch):
        """Acceptance: an injected arbitrary exception in one cell is
        recorded as kind=crash, the other cells complete, the summary
        still prints, the exit code is nonzero — and --resume
        re-executes only the failed cell."""
        discard_smoke_cell(warm_smoke_cache, "cc-ga-ne300-a2.0")
        monkeypatch.setenv("REPRO_INJECT_CRASH", "cc-ga-ne300-a2.0")
        code, out, err = run_cli(
            capsys, "corpus", "--profile", "smoke", "--progress")
        assert code == 3
        assert "215 runs" not in out  # one extra failure: 214 ok
        assert "status=failed kind=crash" in out
        assert "FAILED cc@" in out  # summary still printed
        assert "failed unexpectedly" in err
        assert "--resume" in err

        monkeypatch.delenv("REPRO_INJECT_CRASH")
        code, out, _err = run_cli(
            capsys, "corpus", "--profile", "smoke", "--progress",
            "--resume")
        assert code == 0
        assert "executed 1, cached 219" in out
        assert out.count("source=run") == 1  # only the crashed cell

    def test_corpus_engine_fault_exits_3_and_is_not_retried(
            self, capsys, warm_smoke_cache, monkeypatch):
        """Acceptance: an injected engine-level NaN classifies as the
        non-retryable kind=numeric (never a generic crash), the other
        cells complete, and the build exits 3."""
        discard_smoke_cell(warm_smoke_cache, "cc-ga-ne300-a2.0")
        monkeypatch.setenv("REPRO_INJECT_ENGINE_FAULT",
                           "cc-ga-ne300-a2.0:nan@1")
        code, out, err = run_cli(
            capsys, "corpus", "--profile", "smoke", "--progress",
            "--retries", "2")
        assert code == 3
        assert "status=failed kind=numeric" in out
        assert "attempts=1" in out  # deterministic: retries not spent
        assert "kind=crash" not in out
        assert "FAILED cc@" in out
        assert "failed unexpectedly" in err
        # numeric is deterministic, so the hint must not suggest
        # --resume (which only re-executes retryable kinds)
        assert "--resume" not in err
        assert "--no-cache" in err

    def test_corpus_timeout_and_retries_flags_parse(self, capsys,
                                                    warm_smoke_cache):
        # The flags thread through to the one cell left to execute; a
        # generous timeout changes nothing.
        discard_smoke_cell(warm_smoke_cache, "cc-ga-ne300-a2.0")
        code, out, _err = run_cli(
            capsys, "corpus", "--profile", "smoke", "--timeout", "300",
            "--retries", "1")
        assert code == 0
        assert "215 runs" in out
        assert "executed 1, cached 219" in out

    def test_corpus_bad_retries_fails_before_any_cell(
            self, capsys, tiny_cache, monkeypatch):
        """An out-of-range setting is refused when the options are
        built, never by crashing every cell into exit 3 with a
        --resume hint."""
        import repro.experiments.corpus as corpus_mod

        cells = []
        monkeypatch.setattr(corpus_mod, "_run_cell",
                            lambda *args, **kwargs: cells.append(args))
        code, out, err = run_cli(
            capsys, "corpus", "--profile", "smoke", "--retries", "-1")
        assert code == 1
        assert cells == []
        assert "retries" in err and "--resume" not in err
        assert out == ""

    def test_design_on_smoke_subset(self, capsys, warm_smoke_cache):
        # Keep this cheap: design over two algorithms only; the corpus
        # itself is read back from the smoke store.
        code, out, _err = run_cli(
            capsys, "design", "--size", "4", "--metric", "spread",
            "--algorithms", "triangle", "sssp", "--samples", "2000")
        assert code == 0
        assert "best spread ensemble of size 4" in out
        assert "spread   =" in out

    def test_ensemble_has_one_search_path(self, capsys):
        # argparse rejects the retired selector before any corpus work.
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "ensemble", "--engine", "legacy")
        assert exc.value.code == 2
