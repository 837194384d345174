"""End-to-end telemetry-plane tests: corpus builds under every obs
level, worker-kill crash consistency of the event log, and the
bit-identity guarantee (telemetry never changes behavior vectors)."""

import json

import pytest

from repro.experiments.config import BuildOptions, ExperimentMatrix, Profile
from repro.experiments.corpus import build_corpus
from repro.experiments.results import ResultStore
from repro.obs.events import read_all_events
from repro.obs.stats import render_stats, stats_payload

#: Tiny two-size profile; same shape as the resilience one.
TINY = Profile(
    name="tinyobs",
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


def _vector_fingerprint(corpus):
    return sorted((v.tag, v.as_array().tolist()) for v in corpus.vectors())


class TestFullObsBuild:
    def test_build_writes_inspectable_telemetry(self, tmp_path):
        obs_dir = tmp_path / "obs"
        corpus = build_corpus(TINY, store=ResultStore(tmp_path / "cache"),
                              workers=1, obs="full", obs_dir=obs_dir)
        assert corpus.obs_dir == str(obs_dir)
        assert corpus.run_id
        assert "telemetry:" in corpus.summary()

        # The event log is the one record next to the store.
        assert sorted(p.name for p in obs_dir.iterdir()) == [
            "events.jsonl"]
        payload = stats_payload(obs_dir)
        assert payload["meta"]["level"] == "full"
        assert payload["meta"]["profile"] == "tinyobs"
        assert payload["complete"]

        # Every planned cell has lifecycle events and an outcome.
        events = read_all_events(obs_dir)
        kinds = [e["kind"] for e in events]
        assert kinds.count("build_start") == 1
        assert kinds.count("build_end") == 1
        assert kinds.count("cell_start") == N_CELLS
        assert kinds.count("cell_end") == N_CELLS
        assert kinds.count("progress") == N_CELLS
        assert sum(payload["outcomes"].values()) == N_CELLS
        assert len(payload["cells"]) == N_CELLS

        # The stats report covers phases, failures, caches, latency,
        # and one row per cell.
        report = render_stats(obs_dir)
        for heading in ("Cell outcomes", "Cell phase time breakdown",
                        "Engine phase timing (sampled)",
                        "Graph resolution",
                        "Iteration latency (sampled)",
                        f"Cells ({N_CELLS})"):
            assert heading in report, f"missing section {heading!r}"

    def test_second_build_reports_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        build_corpus(TINY, store=store, workers=1)  # warm, no obs
        obs_dir = tmp_path / "obs"
        corpus = build_corpus(TINY, store=store, workers=1,
                              obs="full", obs_dir=obs_dir)
        assert corpus.n_executed == 0
        assert stats_payload(obs_dir)["from_cache"] == N_CELLS


class TestObsDoesNotPerturbBehavior:
    def test_vectors_bit_identical_across_levels(self, tmp_path):
        """The acceptance bar: under the unit work model the behavior
        corpus is byte-for-byte identical at obs off/full."""
        fingerprints = {}
        for level in ("off", "full"):
            corpus = build_corpus(
                TINY, store=ResultStore(tmp_path / f"cache-{level}"),
                workers=1, obs=level, obs_dir=tmp_path / f"obs-{level}")
            assert not corpus.unexpected_failures
            fingerprints[level] = _vector_fingerprint(corpus)
        assert fingerprints["off"] == fingerprints["full"]

    def test_off_level_writes_nothing(self, tmp_path):
        obs_dir = tmp_path / "obs"
        corpus = build_corpus(TINY,
                              store=ResultStore(tmp_path / "cache"),
                              workers=1, obs="off", obs_dir=obs_dir)
        assert corpus.obs_dir is None
        assert not obs_dir.exists()


class TestWorkerKillCrashConsistency:
    @pytest.mark.parametrize("workers", [2])
    def test_sigkilled_worker_leaves_clean_merged_log(
            self, tmp_path, monkeypatch, workers):
        """A pool worker SIGKILLed mid-build may die mid-line in its
        sink; after the (resumed) builds the merged main log must
        contain only valid JSON lines, the sinks must be gone, and the
        log must close with ``build_end`` even for the failed build."""
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        for i in range(2):
            (token_dir / f"token-{i}").touch()
        monkeypatch.setenv("REPRO_CHAOS_KILL", f"{token_dir}:1.0")

        store = ResultStore(tmp_path / "cache")
        obs_dir = tmp_path / "obs"
        corpus = None
        for _attempt in range(6):
            corpus = build_corpus(TINY, store=store, workers=workers,
                                  options=BuildOptions(
                                      resume=True, retries=0),
                                  obs="full", obs_dir=obs_dir)
            # The log is closed even when the build had failures (the
            # merge runs in the finally path).
            assert read_all_events(obs_dir)[-1]["kind"] == "build_end"
            if not corpus.unexpected_failures:
                break
        assert corpus is not None and not corpus.unexpected_failures
        assert not list(token_dir.iterdir()), \
            "chaos kills never fired — the harness tested nothing"

        # Each kill landed on a cell, after its events were written.
        died = [e.get("task") for e in read_all_events(obs_dir)
                if e.get("kind") == "scheduler"
                and e.get("action") == "worker-died"]
        assert died and all(str(t).startswith("run:") for t in died), died

        # No worker sink survives a merge; the merged log parses
        # line-by-line with zero torn entries.
        assert not (obs_dir / "sinks").exists() or \
            not list((obs_dir / "sinks").iterdir())
        for log in [obs_dir / "events.jsonl",
                    *obs_dir.glob("events.jsonl.*")]:
            for n, line in enumerate(
                    log.read_text(encoding="utf-8").splitlines(), 1):
                if line.strip():
                    json.loads(line)  # raises on a corrupt merge

        # The surviving log still accounts for completed cells.
        assert sum(stats_payload(obs_dir)["outcomes"].values()) > 0


class TestLogGrowsWithCells:
    def test_event_count_does_not_depend_on_iterations(self, tmp_path,
                                                       monkeypatch):
        """DESIGN §12: the log grows with cells, not iterations. The
        same plan at two iteration caps writes the same number of
        events, though the engines ran different numbers of steps."""
        from repro.behavior import run as run_mod

        real = run_mod.build_engine_options
        counts, iterations = {}, {}
        for cap in (2, 8):
            monkeypatch.setattr(
                run_mod, "build_engine_options",
                lambda alg, over=None, cap=cap: real(
                    alg, {**(over or {}), "max_iterations": cap}))
            obs_dir = tmp_path / f"obs-{cap}"
            corpus = build_corpus(
                TINY, store=ResultStore(tmp_path / f"cache-{cap}"),
                workers=1, obs="full", obs_dir=obs_dir)
            counts[cap] = len(read_all_events(obs_dir))
            iterations[cap] = sum(r.trace.n_iterations
                                  for r in corpus.runs)
        assert iterations[2] < iterations[8]
        assert counts[2] == counts[8]
