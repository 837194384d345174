"""Ensemble-search wall time: the shipped engine vs the test oracle.

Times best-spread curves (sizes 4..20) and a coverage curve over
synthetic behavior pools with both arms:

- **fast** — :class:`repro.ensemble.fast.FastEngine` behind the public
  search API (tiled distance kernels, one batched step per beam level,
  incremental swap refinement);
- **legacy** — ``tests/ensemble_oracle.py``, the original monolithic
  evaluator (full ``squareform`` materialization, Python loop per beam
  state) the engine is selection-checked against. The arm keeps its
  name so ``BENCH_ensemble.json`` stays comparable across commits.

Arms alternate and the best-of-N wall per arm cancels noise. Every
section asserts identical index tuples and scores equal to 1e-9. At
the paper's corpus scale (n = 215) the engine must not lose to the
oracle on spread or on the coverage beam; at n = 2000 it must clear a
>=5x gate on the spread curve. The coverage section also showcases the
lazy-greedy selector, and ``coverage_greedy_n3000`` races it (plus
swap refinement) against the oracle's plain greedy on the
``design-wide`` pool shape: n = 3000, size 12, 4 000 samples, where
the engine must not lose. Results merge into
``benchmarks/artifacts/BENCH_ensemble.json`` (uploaded by CI's
perf-smoke step). The n = 10_000 arm runs only when
``REPRO_BENCH_LARGE`` is set.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.ensemble.search import best_ensemble, best_ensemble_curve
from tests.ensemble_oracle import Oracle

ARTIFACT_DIR = Path(__file__).parent / "artifacts"
ARTIFACT = "BENCH_ensemble.json"

SIZES = [4, 8, 12, 16, 20]
BEAM_WIDTH = 64
#: Minimum fast-vs-oracle speedup on the n=2000 spread curve.
SPEEDUP_GATE = 5.0
#: Score agreement required between the two arms.
SCORE_TOL = 1e-9


def make_pool(n: int, seed: int = 7) -> list[BehaviorVector]:
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 4))
    return [BehaviorVector(*c, tag=(f"alg{i % 13}", 10 ** (i % 3), 2.0))
            for i, c in enumerate(coords)]


def _merge_report(key: str, payload: dict) -> None:
    """Read-modify-write one section of the shared artifact."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / ARTIFACT
    data = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else {}
    data[key] = payload
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _fast_curve(pool, metric, sizes, samples, strategy):
    return best_ensemble_curve(pool, sizes, metric, samples=samples,
                               beam_width=BEAM_WIDTH, strategy=strategy)


def _oracle_curve(pool, metric, sizes, samples, strategy):
    oracle = Oracle(pool, metric, samples=samples)
    return {size: oracle.best(size, beam_width=BEAM_WIDTH,
                              strategy=strategy)
            for size in sizes}


ARMS = {"fast": _fast_curve, "legacy": _oracle_curve}


def _race(pool, metric="spread", sizes=SIZES, samples=None,
          fast=3, legacy=3, strategy="beam"):
    """Alternate the arms, ``fast`` / ``legacy`` repeats each; assert
    the curves agree; return the report fields every section shares."""
    repeats = {"fast": fast, "legacy": legacy}
    walls: dict[str, list[float]] = {arm: [] for arm in ARMS}
    curves = {}
    for rep in range(max(repeats.values())):
        for arm, run in ARMS.items():
            if rep < repeats[arm]:
                started = time.perf_counter()
                curves[arm] = run(pool, metric, sizes, samples, strategy)
                walls[arm].append(time.perf_counter() - started)
    for size in sizes:
        assert curves["fast"][size].indices \
            == curves["legacy"][size].indices, size
        assert curves["fast"][size].score == pytest.approx(
            curves["legacy"][size].score, abs=SCORE_TOL)
    best = {arm: min(walls[arm]) for arm in ARMS}
    return {
        "n": len(pool), "sizes": list(sizes), "beam_width": BEAM_WIDTH,
        "fast_wall_s": walls["fast"], "legacy_wall_s": walls["legacy"],
        "best_wall_s": best,
        "speedup": best["legacy"] / best["fast"],
        "scores": {str(s): curves["fast"][s].score for s in sizes},
    }


def test_bench_spread_corpus_scale():
    """n = 215: the paper's own pool size. Parity plus both walls."""
    report = _race(make_pool(215))
    _merge_report("spread_n215", report)
    assert report["speedup"] >= 1.0, report


def test_bench_spread_2k_gate():
    """n = 2000: the corpus-scale gate — fast must be >=5x faster."""
    report = _race(make_pool(2_000), legacy=1)
    report["gate"] = SPEEDUP_GATE
    _merge_report("spread_n2000", report)
    assert report["speedup"] >= SPEEDUP_GATE, (
        f"fast engine {report['speedup']:.1f}x over the oracle, "
        f"gate {SPEEDUP_GATE}x")


def test_bench_coverage_validation():
    """Coverage at n = 215: the beam must not lose to the oracle, and
    the greedy selector must beat both."""
    pool = make_pool(215)
    samples = BehaviorSpace().sample(4_000, seed=0)
    report = _race(pool, "coverage", sizes=[4, 8], samples=samples)
    started = time.perf_counter()
    greedy = best_ensemble(pool, 20, "coverage", samples=samples,
                           strategy="greedy")
    greedy_wall = time.perf_counter() - started
    report["n_samples"] = 4_000
    report["beam_scores"] = report.pop("scores")
    report["greedy_size20"] = {"wall_s": greedy_wall,
                               "score": greedy.score}
    _merge_report("coverage_n215", report)
    assert report["speedup"] >= 1.0, report
    # The lazy-greedy selector is the corpus-scale coverage path; it
    # must come in well under the beam walls.
    assert greedy_wall < min(report["best_wall_s"].values())


def test_bench_coverage_greedy_n3000():
    """Greedy + refine at n = 3000, size 12, 4 000 samples: CELF over
    read-only row views and refine's streamed sweep must select what
    the oracle's plain greedy + swap refine selects, no slower."""
    samples = BehaviorSpace().sample(4_000, seed=0)
    report = _race(make_pool(3_000), "coverage", sizes=[12],
                   samples=samples, legacy=1, strategy="greedy")
    report["n_samples"] = 4_000
    _merge_report("coverage_greedy_n3000", report)
    assert report["speedup"] >= 1.0, report


@pytest.mark.skipif(not os.environ.get("REPRO_BENCH_LARGE"),
                    reason="set REPRO_BENCH_LARGE=1 for the 10k arm")
def test_bench_spread_10k_large():
    """n = 10_000, size 20 only, one repeat per arm."""
    report = _race(make_pool(10_000), sizes=[20], fast=1, legacy=1)
    _merge_report("spread_n10000", report)
    assert report["speedup"] >= 1.0
