"""Compare two ledgers: ``python benchmarks/e2e/compare.py A B``.

``A`` is the base (the parent commit, or the first of two runs of one
commit) and ``B`` the candidate; each is a ``BENCH_e2e.json`` or the
directory holding one. One row per workload and bounded metric (the
end-to-end metrics, and each stage metric where the workload has the
stage): both medians with their min-max, the ratio B/A, and a verdict.

``ok``
    B's median is no worse than A's by more than the metric's bound.
``regressed``
    It is worse by more than the bound.
``unresolved``
    The calibration kernel read more than 10 % apart anywhere in the
    pair (inside a ledger, which stamps it ``noisy``, or between the
    two), so the machine was not the same machine and no row carries a
    verdict. Or the runs of one side spread
    wider than the bound (interquartile distance over median), so the
    medians cannot: then only every run of B reading better than every
    run of A counts as ``ok``, and only every run reading worse, with
    the medians apart by more than the bound, as ``regressed``.

Exits 1 on any ``regressed`` row or when a workload's ``failed_frac``
rose. Counters that must repeat exactly are listed when they differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


#: Drift of the calibration kernel beyond which walls are not comparable.
CALIBRATION_DRIFT = 0.10


def drifted(*ledgers: dict) -> bool:
    """Whether the calibration kernel moved across these ledgers."""
    calib = [c for ledger in ledgers for c in ledger["calib_s"].values()]
    return max(calib) / min(calib) - 1.0 > CALIBRATION_DRIFT


def load(path: str) -> dict:
    found = Path(path)
    if found.is_dir():
        found = found / "BENCH_e2e.json"
    return json.loads(found.read_text())


def spread(m: dict) -> float:
    """Distance between the quartiles of the runs, over their median."""
    if len(m["values"]) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(m["values"], n=4)
    return (q3 - q1) / m["median"]


def verdict(a: dict, b: dict, noisy: bool) -> str:
    """Where ``b`` stands against ``a``, both one metric's summary."""
    if noisy:
        return "unresolved"
    sign = 1.0 if a["better"] == "lower" else -1.0
    bound = a["bound"]
    worse = sign * (b["median"] - a["median"]) / a["median"] > bound
    if max(spread(a), spread(b)) <= bound:
        return "regressed" if worse else "ok"
    gaps = [sign * (y - x) for x in a["values"] for y in b["values"]]
    if all(gap < 0 for gap in gaps):
        return "ok"
    if worse and all(gap > 0 for gap in gaps):
        return "regressed"
    return "unresolved"


def compare(a: dict, b: dict) -> int:
    noisy = drifted(a, b)
    for side, ledger in (("A", a), ("B", b)):
        calib = ledger["calib_s"]
        print(f"{side}: seed {ledger['seed']}, {ledger['reps']} reps"
              + (", check-sized" if ledger["check"] else "")
              + f", calibration {1e3 * calib['start']:.1f} -> "
                f"{1e3 * calib['end']:.1f} ms")
    if noisy:
        print("NOISY: the calibration kernel drifted by more than "
              f"{CALIBRATION_DRIFT:.0%} across the pair")
    bad = unresolved = 0
    print(f"\n{'workload':<16}{'metric':<23}{'A median [min-max]':>36}"
          f"{'B median [min-max]':>36}{'B/A':>8}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<16}missing from B")
            bad += 1
            continue
        for metric, ma in wa["metrics"].items():
            if ma["bound"] is None:
                continue
            mb = wb["metrics"][metric]
            row = verdict(ma, mb, noisy)
            bad += row == "regressed"
            unresolved += row == "unresolved"
            cells = [f"{m['median']:.4g} [{m['min']:.4g}-{m['max']:.4g}]"
                     for m in (ma, mb)]
            print(f"{name:<16}{metric:<23}{cells[0]:>36}{cells[1]:>36}"
                  f"{mb['median'] / ma['median']:>8.3f}  {row} "
                  f"(bound {ma['bound']:.0%} of A)")
        if wb["failed_frac"] > wa["failed_frac"]:
            print(f"{name:<16}failed_frac rose from {wa['failed_frac']:.4f} "
                  f"to {wb['failed_frac']:.4f}")
            bad += 1
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"][metric]
            if ma["unit"] in ("count", "score") \
                    and set(ma["values"]) != set(mb["values"]):
                print(f"{name:<16}exact value differs: {metric} "
                      f"{ma['values']} -> {mb['values']}")
    print(f"\n{'regressed' if bad else 'no regression'}, "
          f"{unresolved} rows unresolved")
    return 1 if bad else 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
