"""Output checks: every rep's outputs against ``expected/``.

Inputs are pinned, so every cell must reproduce the committed
iteration, update, edge-read and message counts exactly and its raw
behavior metrics within 1e-9, and every search the committed member
indices and score. Beside the reference, the invariants: every planned
cell answered, no failure but the by-design memory ones, vectors in the
unit hypercube with every dimension reaching 1, well-formed ensembles
whose score an independent re-score confirms.

A failed check counts against the attempted operations exactly like a
failed cell or a failed search.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from repro.ensemble.metrics import coverage, spread
from repro.experiments.corpus import run_cache_key
from repro.graph.shm import SEGMENT_PREFIX

from workloads import Context, Outputs

TOLERANCE = 1e-9
COUNTERS = ("updates", "edge_reads", "messages")


class Tally:
    """Operations attempted and the ones that failed, with the reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)


def cell_record(run) -> "dict[str, Any]":
    """What the reference keeps of one cell."""
    if not run.ok:
        return {"failed": run.failure.kind}
    record = {name: int(run.trace.series(name).sum()) for name in COUNTERS}
    record["iterations"] = run.trace.n_iterations
    record["raw"] = [float(x) for x in run.metrics.as_array()]
    return record


def search_record(results) -> list:
    return [[list(r.indices), r.score] for r in results]


def observed(name: str, ctx: Context, out: Outputs) -> "dict[str, dict]":
    """This pass's outputs in the shape of the reference files."""
    cells = {}
    if out.corpus is not None:
        for run in out.corpus.runs + out.corpus.failures:
            cells[run_cache_key(run, out.profile)] = cell_record(run)
    prefix = f"{name}/{ctx.size}"
    ensembles = {f"{prefix}/{search}": search_record(results)
                 for search, results in out.searches.items()}
    if out.rescored:
        ensembles[f"{prefix}/rescored"] = out.rescored
    return {"cells": cells, "ensembles": ensembles}


def vector_digest(vectors) -> str:
    """Bit-exact identity of a corpus's vectors, whatever their order."""
    rows = sorted((repr(v.tag), v.as_array().tobytes().hex())
                  for v in vectors)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def check_cells(tally: Tally, out: Outputs,
                reference: "dict[str, dict]") -> None:
    corpus = out.corpus
    answered = {run_cache_key(run, out.profile): run
                for run in corpus.runs + corpus.failures}
    for planned in out.plan:
        key = run_cache_key(planned, out.profile)
        run = answered.get(key)
        if run is None:
            tally.check(False, f"{key}: planned but not answered")
            continue
        if not run.ok and not run.failure.expected:
            tally.check(False, f"{key}: unexpected {run.failure.kind} "
                               f"failure: {run.failure.message}")
            continue
        want, got = reference.get(key), cell_record(run)
        same = want is not None and want.keys() == got.keys() and all(
            got[k] == v for k, v in want.items() if k != "raw") and all(
            _close(a, b) for a, b in zip(want.get("raw", ()),
                                         got.get("raw", ())))
        tally.check(same, f"{key}: got {got}, reference says {want}")
    tally.check(len(answered) == len(out.plan),
                f"{len(answered)} cells answered, {len(out.plan)} planned")


def check_vectors(tally: Tally, vectors) -> None:
    mat = np.vstack([v.as_array() for v in vectors])
    inside = bool(np.all(mat >= 0.0) and np.all(mat <= 1.0))
    tally.check(inside, "behavior vectors leave the unit hypercube")
    tally.check(bool(np.all(mat.max(axis=0) == 1.0)),
                f"per-dimension maxima are {mat.max(axis=0)}, not 1")


def check_searches(tally: Tally, name: str, ctx: Context, out: Outputs,
                   reference: "dict[str, list]") -> None:
    prefix = f"{name}/{ctx.size}"
    for search, results in out.searches.items():
        pool, samples = out.search_inputs[search]
        want = reference.get(f"{prefix}/{search}", [])
        tally.check(len(want) == len(results),
                    f"{prefix}/{search}: no reference of that length")
        for i, result in enumerate(results):
            idx = result.indices
            formed = (list(idx) == sorted(set(idx))
                      and 0 <= idx[0] and idx[-1] < len(pool)
                      and all(pool[j] == m for j, m in
                              zip(idx, result.ensemble.members)))
            again = (spread(result.ensemble) if result.metric == "spread"
                     else coverage(result.ensemble, samples=samples))
            ok = formed and _close(again, result.score)
            problem = (f"{prefix}/{search}[{i}]: ill-formed, or score "
                       f"{result.score} re-scores as {again}")
            if ok and i < len(want):
                ok = (list(idx) == want[i][0]
                      and _close(result.score, want[i][1]))
                problem = (f"{prefix}/{search}[{i}]: got {list(idx)} "
                           f"{result.score}, reference says {want[i]}")
            tally.check(ok, problem)
    if out.rescored:
        want = reference.get(f"{prefix}/rescored", ())
        tally.check(len(want) == len(out.rescored) and all(
            _close(a, b) for a, b in zip(want, out.rescored)),
            f"{prefix}/rescored: got {out.rescored}, reference says {want}")


def check_outputs(name: str, ctx: Context, out: Outputs,
                  expected: "dict[str, dict]") -> Tally:
    """Every check one pass's outputs are put through."""
    tally = Tally()
    if out.corpus is not None:
        check_cells(tally, out, expected["cells"])
        if out.rounds > 1:
            tally.check(out.corpus.n_cached == len(out.plan),
                        "the warm store did not serve every cell")
    if out.vectors is not None:
        check_vectors(tally, out.vectors)
    check_searches(tally, name, ctx, out, expected["ensembles"])
    tally.check(out.stable, "repeated rounds found different ensembles")
    leaked = sorted(p.name for p in
                    Path("/dev/shm").glob(SEGMENT_PREFIX + "*"))
    tally.check(not leaked, f"shared-memory segments survive: {leaked}")
    return tally
