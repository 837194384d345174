"""Telemetry overhead smoke: full observability vs obs-off wall time.

Builds the same smoke-profile corpus twice per round — once with
``obs="off"`` and once with ``obs="full"`` (every iteration timed,
span + lifecycle events, per-worker sinks, exporters) — alternating
arms so machine noise hits both equally. The acceptance bar is the
one DESIGN.md §12 commits to: full-level telemetry must cost at most
15% wall time over a dark build (plus a small absolute slack, since
one scheduler stall is a visible fraction of a ~10 s build).

The measured walls land in ``benchmarks/artifacts/BENCH_obs.json``
(uploaded by CI's obs-smoke step). The full build's report is checked
too: ``repro stats``'s payload, a fold over the event log alone, has
one cell row per planned cell, with engine seconds.
"""

import json
import time
from pathlib import Path

from repro.experiments.config import ExperimentMatrix, get_profile
from repro.experiments.corpus import build_corpus
from repro.experiments.results import ResultStore
from repro.obs.stats import stats_payload

ARTIFACT_DIR = Path(__file__).parent / "artifacts"

WORKERS = 2
REPEATS = 2
MAX_REPEATS = 4
MAX_OVERHEAD = 1.15
ABS_SLACK_S = 0.75

ARMS = ("off", "full")


def _timed_build(profile, store_root, level, obs_dir):
    store = ResultStore(store_root)
    started = time.perf_counter()
    corpus = build_corpus(profile, workers=WORKERS, store=store,
                          obs=level, obs_dir=obs_dir)
    wall = time.perf_counter() - started
    assert not corpus.unexpected_failures
    return wall, corpus


def test_bench_obs_overhead(tmp_path):
    profile = get_profile("smoke")
    walls: dict[str, list[float]] = {arm: [] for arm in ARMS}
    obs_dirs: dict[str, Path] = {}

    round_no = 0
    while round_no < REPEATS or (
            round_no < MAX_REPEATS
            and min(walls["full"])
            > min(walls["off"]) * MAX_OVERHEAD + ABS_SLACK_S):
        for arm in ARMS:
            obs_dir = tmp_path / f"obs-{arm}-{round_no}"
            wall, _corpus = _timed_build(
                profile, tmp_path / f"{arm}-{round_no}", arm, obs_dir)
            walls[arm].append(wall)
            obs_dirs[arm] = obs_dir
        round_no += 1

    best = {arm: min(times) for arm, times in walls.items()}
    overhead = best["full"] / best["off"]
    report = {
        "profile": profile.name,
        "workers": WORKERS,
        "rounds": round_no,
        "wall_s": walls,
        "best_wall_s": best,
        "overhead": overhead,
        "budget": {"relative": MAX_OVERHEAD, "absolute_s": ABS_SLACK_S},
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    (ARTIFACT_DIR / "BENCH_obs.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")

    payload = stats_payload(obs_dirs["full"])
    planned = len(list(ExperimentMatrix(profile).corpus_runs()))
    assert payload["complete"]
    assert len(payload["cells"]) == planned
    ran = [c for c in payload["cells"] if c["status"] != "failed"]
    assert ran and all(c["engine_s"] > 0 for c in ran)

    assert best["full"] <= best["off"] * MAX_OVERHEAD + ABS_SLACK_S, report
