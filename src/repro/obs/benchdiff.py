"""``repro bench compare``: perf-regression gate over BENCH artifacts.

Diffs the JSON reports the benchmark smokes drop under
``benchmarks/artifacts/`` (``BENCH_engine.json``,
``BENCH_ensemble.json``, ``BENCH_obs.json``) between a *baseline* and a
*candidate* directory, flagging metric movements beyond configurable
thresholds.

Two metric kinds are distinguished:

``ratio``
    Machine-portable relative measures (speedups, overhead factors,
    hit rates).  These are **gated**: moving past ``--warn-pct`` warns,
    past ``--fail-pct`` fails the command (warn-then-fail, exit 1).
``wall``
    Absolute times / throughputs.  These depend on the hardware the
    baseline was recorded on, so by default they are *reported* but
    only gate with ``--strict`` (useful when baseline and candidate
    come from the same machine, e.g. consecutive CI runs on one
    runner).
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path
from typing import Any

#: Known artifacts, in comparison order.
ARTIFACTS = ("BENCH_engine.json", "BENCH_ensemble.json", "BENCH_obs.json")

#: (artifact glob, dotted-path glob, direction, kind).  ``direction``
#: is the *good* direction: "higher" metrics regress when they drop,
#: "lower" metrics regress when they grow.
RULES: "tuple[tuple[str, str, str, str], ...]" = (
    ("BENCH_engine.json", "workloads.*.arms.*.edges_per_s",
     "higher", "wall"),
    ("BENCH_engine.json", "workloads.*.arms.*.best_s", "lower", "wall"),
    ("BENCH_engine.json", "speedup.*", "higher", "ratio"),
    ("BENCH_engine.json", "monitor_overhead", "lower", "ratio"),
    ("BENCH_engine.json", "fused_step_over_floor.*", "lower", "ratio"),
    ("BENCH_ensemble.json", "*.speedup", "higher", "ratio"),
    ("BENCH_ensemble.json", "*.best_wall_s.fast", "lower", "wall"),
    ("BENCH_obs.json", "overhead", "lower", "ratio"),
    ("BENCH_obs.json", "best_wall_s.*", "lower", "wall"),
)


def _numeric_leaves(data: Any, prefix: str = "") -> dict[str, float]:
    """Flatten a JSON tree to ``{dotted.path: value}`` numeric leaves."""

    out: dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_numeric_leaves(value, path))
    elif isinstance(data, bool):
        pass
    elif isinstance(data, (int, float)):
        out[prefix] = float(data)
    return out


def _rule_for(artifact: str, path: str) -> "tuple[str, str] | None":
    for art_glob, path_glob, direction, kind in RULES:
        if (fnmatch.fnmatchcase(artifact, art_glob)
                and fnmatch.fnmatchcase(path, path_glob)):
            return direction, kind
    return None


def compare_artifacts(baseline_dir: "str | Path",
                      candidate_dir: "str | Path", *,
                      warn_pct: float = 10.0,
                      fail_pct: float = 25.0,
                      strict: bool = False,
                      artifacts: "tuple[str, ...] | None" = None) \
        -> dict[str, Any]:
    """Compare every known artifact present in both directories, or
    exactly the named *artifacts* — one of those absent from either
    side fails the gate instead of being skipped.

    Returns a report dict with one entry per matched metric:
    ``regression_pct`` is positive when the metric moved in the *bad*
    direction.  ``status`` is ``ok`` / ``warn`` / ``fail`` /
    ``info`` (ungated wall metric) / ``new`` / ``missing``.
    """

    base_root = Path(baseline_dir)
    cand_root = Path(candidate_dir)
    entries: list[dict[str, Any]] = []
    skipped: list[str] = []
    for artifact in artifacts or ARTIFACTS:
        base_path = base_root / artifact
        cand_path = cand_root / artifact
        absent = [side for side, path in (("baseline", base_path),
                                          ("candidate", cand_path))
                  if not path.exists()]
        if absent and artifacts is None:
            skipped.append(artifact)
            continue
        if absent:
            # Asked for by name: nothing compared is not a pass.
            entries.append({"artifact": artifact, "path": "",
                            "status": "fail",
                            "note": "artifact absent from "
                                    + " and ".join(absent)})
            continue
        try:
            base = _numeric_leaves(
                json.loads(base_path.read_text(encoding="utf-8")))
            cand = _numeric_leaves(
                json.loads(cand_path.read_text(encoding="utf-8")))
        except ValueError as exc:
            entries.append({"artifact": artifact, "path": "",
                            "status": "fail",
                            "note": f"unparseable artifact: {exc}"})
            continue
        for path in sorted(base.keys() | cand.keys()):
            rule = _rule_for(artifact, path)
            if rule is None:
                continue
            direction, kind = rule
            if path not in base:
                entries.append({"artifact": artifact, "path": path,
                                "status": "new",
                                "candidate": cand[path]})
                continue
            if path not in cand:
                entries.append({"artifact": artifact, "path": path,
                                "status": "missing",
                                "baseline": base[path]})
                continue
            old, new = base[path], cand[path]
            if old == 0:
                regression = 0.0
            elif direction == "higher":
                regression = 100.0 * (old - new) / abs(old)
            else:
                regression = 100.0 * (new - old) / abs(old)
            gated = kind == "ratio" or strict
            if not gated:
                status = "info"
            elif regression > fail_pct:
                status = "fail"
            elif regression > warn_pct:
                status = "warn"
            else:
                status = "ok"
            entries.append({"artifact": artifact, "path": path,
                            "direction": direction, "kind": kind,
                            "baseline": old, "candidate": new,
                            "regression_pct": regression,
                            "status": status})
    counts = {status: sum(1 for e in entries if e["status"] == status)
              for status in ("ok", "warn", "fail", "info", "new",
                             "missing")}
    return {"entries": entries, "skipped": skipped, "counts": counts,
            "warn_pct": warn_pct, "fail_pct": fail_pct,
            "strict": strict, "failed": counts["fail"] > 0}


def render_bench_compare(report: dict[str, Any]) -> str:
    """Human rendering of a :func:`compare_artifacts` report."""

    lines = [
        f"bench compare: warn > {report['warn_pct']:g}%, "
        f"fail > {report['fail_pct']:g}%"
        + (" (strict: wall metrics gated)" if report["strict"] else ""),
    ]
    if report["skipped"]:
        lines.append("skipped (artifact absent on one side): "
                     + ", ".join(report["skipped"]))
    lines.append("")
    header = (f"  {'status':<7} {'artifact':<20} {'metric':<44} "
              f"{'baseline':>12} {'candidate':>12} {'delta':>8}")
    lines.append(header)
    order = {"fail": 0, "warn": 1, "missing": 2, "new": 3, "ok": 4,
             "info": 5}
    for entry in sorted(report["entries"],
                        key=lambda e: (order.get(e["status"], 9),
                                       e["artifact"], e["path"])):
        status = entry["status"]
        if "regression_pct" in entry:
            delta = f"{-entry['regression_pct']:+.1f}%" \
                if entry["direction"] == "higher" \
                else f"{entry['regression_pct']:+.1f}%"
            lines.append(
                f"  {status:<7} {entry['artifact']:<20} "
                f"{entry['path']:<44.44} {entry['baseline']:>12.4g} "
                f"{entry['candidate']:>12.4g} {delta:>8}")
        else:
            side = entry.get("candidate", entry.get("baseline", ""))
            note = entry.get("note", status)
            lines.append(
                f"  {status:<7} {entry['artifact']:<20} "
                f"{entry['path']:<44.44} {side!s:>12} {note}")
    counts = report["counts"]
    lines.append("")
    lines.append(
        f"{counts['ok']} ok, {counts['warn']} warn, "
        f"{counts['fail']} fail, {counts['info']} informational, "
        f"{counts['new']} new, {counts['missing']} missing")
    if report["failed"]:
        lines.append("RESULT: FAIL (regressions beyond the fail "
                     "threshold)")
    elif counts["warn"]:
        lines.append("RESULT: WARN (regressions beyond the warn "
                     "threshold; failing threshold not reached)")
    else:
        lines.append("RESULT: OK")
    return "\n".join(lines) + "\n"
