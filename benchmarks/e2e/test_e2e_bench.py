"""Self-test of the end-to-end benchmark harness.

Outside the tier-1 ``testpaths``; run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q

It drives ``run.py --check`` (every workload shrunk, one rep) as a
subprocess, exactly as a user would, and holds the two committed
ledgers of one commit (``baseline/A``, ``baseline/B``) to the bounds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def run_check(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--check", *extra],
        capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-check")
    done = run_check("--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads((out / "BENCH_e2e.json").read_text()), done.stdout


def test_every_contract_metric_is_emitted_and_nothing_else(checked):
    _, ledger, printed = checked
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    defined = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(ledger["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in ledger["workloads"].items():
        assert set(entry["metrics"]) == set(defined), name
        for metric, got in entry["metrics"].items():
            want = defined[metric]
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
            assert got["unit"] == want["unit"]
            assert got["better"] == want["better"] in ("higher", "lower")
            assert got["n"] >= 1
            assert re.search(rf"^\s+{re.escape(metric)}\s", printed, re.M)
            if "bound" in want:
                # The ledger is never looser than the contract.
                assert 0 < got["bound"] <= want["bound"]
            elif metric.startswith("stage.") or metric == "pass_wall_s":
                # Bounded exactly where the workload has the stage.
                assert (got["bound"] is not None) == (got["median"] > 0)
            else:
                assert got["bound"] is None
        assert entry["failed_frac"] == 0.0, entry["problems"]


def test_end_to_end_metrics_are_never_zero(checked):
    _, ledger, _ = checked
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in end_to_end
    for name, entry in ledger["workloads"].items():
        for metric in end_to_end:
            assert entry["metrics"][metric]["median"] > 0, (name, metric)


@pytest.mark.parametrize("trace, part", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_workload_run_prints_one_result_line(trace, part, tmp_path):
    """The ``BENCHMARK.json`` driver's call: the last line is one JSON
    object holding exactly that part's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "design-wide",
         "--seed", "3", "--seconds", "4", "--trace", str(trace),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 < result["attempted"]
    assert result["metrics"].keys() == {m["name"] for m in spec[part]}
    for m in spec[part]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if part == "end_to_end":
            assert result["metrics"][m["name"]]["value"] > 0


def test_program_calls_account_for_the_traced_pass(checked):
    _, ledger, _ = checked
    for name, entry in ledger["workloads"].items():
        # Under 2 % of a traced pass is inside no call into the program.
        assert entry["metrics"]["bench.unattributed_frac"]["median"] < 0.02, \
            name


def summary(values, better="lower", bound=0.10):
    ordered = sorted(values)
    return {"values": values, "median": ordered[len(ordered) // 2],
            "min": ordered[0], "max": ordered[-1], "better": better,
            "bound": bound}


def test_verdicts():
    base = summary([10.0, 10.1, 10.2])
    assert compare.verdict(base, summary([10.3, 10.4, 10.5]), False) == "ok"
    assert compare.verdict(base, summary([11.5, 11.6, 11.7]),
                           False) == "regressed"
    wide = summary([9.0, 10.1, 12.0])
    assert compare.verdict(base, wide, False) == "unresolved"
    assert compare.verdict(wide, summary([8.0, 8.5, 8.9]), False) == "ok"
    assert compare.verdict(wide, summary([12.1, 12.5, 14.0]),
                           False) == "regressed"
    rate = summary([100.0, 101.0, 102.0], better="higher")
    assert compare.verdict(rate, summary([80.0, 81.0, 82.0], "higher"),
                           False) == "regressed"
    # A calibration-drifted pair never reads ok, nor regressed.
    for other in ([5.0, 5.1, 5.2], [10.0, 10.1, 10.2], [20.0, 20.1, 20.2]):
        assert compare.verdict(base, summary(other), True) == "unresolved"


def test_committed_ledgers_of_one_commit_agree(capsys):
    """The A/A record: two ledgers of one commit show no regression
    under the ledger's bounds, every exact count repeats, and
    ``baseline/compare.txt`` is what ``compare.py`` says of the pair."""
    a, b = (compare.load(str(HERE / "baseline" / side)) for side in "AB")
    assert compare.compare(a, b) == 0
    printed = capsys.readouterr().out
    assert printed == (HERE / "baseline" / "compare.txt").read_text()
    assert "exact value differs" not in printed
    for ledger in (a, b):
        assert not ledger["check"]
        for name, entry in ledger["workloads"].items():
            assert entry["failed_frac"] == 0.0, (name, entry["problems"])
            assert entry["metrics"]["bench.unattributed_frac"]["max"] < 0.02


def test_corrupted_reference_fails_the_run_and_update_restores_it(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(HERE / "expected", expected)
    cells = json.loads((expected / "cells.json").read_text())
    key = next(k for k in cells
               if k.startswith("smoke-pagerank-ga-ne300-a2.5"))
    right = cells[key]["iterations"]
    cells[key]["iterations"] += 1
    (expected / "cells.json").write_text(json.dumps(cells))
    results = HERE / "results"
    before = sorted(results.iterdir()) if results.exists() else None
    done = run_check("--expected", str(expected), "--update-expected")
    assert done.returncode == 1
    assert re.search(rf"FAILED {re.escape(key)}", done.stdout)
    assert not re.search(r"== smoke-inline: failed_frac 0\.0000", done.stdout)
    assert re.search(r"== design-wide: failed_frac 0\.0000", done.stdout)
    after = sorted(results.iterdir()) if results.exists() else None
    assert before == after
    # --update-expected put the observed count back, and kept the cells
    # the shrunken run never sees.
    rewritten = json.loads((expected / "cells.json").read_text())
    assert rewritten[key]["iterations"] == right
    assert rewritten.keys() == cells.keys()
