#!/usr/bin/env python
"""Chaos smoke gate: one supervised corpus build under random worker
SIGKILLs plus an injected worker stall must converge — in a single
pass — to vectors exactly matching an undisturbed build, with zero
unexpected failures, no leaked shared-memory segments, and no worker
process left alive after either build (the replacements for the
SIGKILLed and stalled workers included).

The chaos build runs with full observability and must additionally
reconstruct as **one connected trace with zero orphan spans** (every
retried/re-dispatched attempt re-derives its cell span), and its
critical-path decomposition must account for the build wall to within
10%.  Trace + critical-path reports are written to
``$SMOKE_ARTIFACT_DIR`` (when set) for CI artifact upload.

Run from the repo root (CI wraps it in a wall-clock timeout)::

    PYTHONPATH=src python scripts/chaos_smoke.py

Exit codes: 0 pass, 1 assertion failed.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

from repro.experiments.config import BuildOptions, Profile
from repro.experiments.corpus import build_corpus
from repro.experiments.results import ResultStore
from repro.obs.critpath import critical_path, render_critical_path
from repro.obs.events import read_all_events
from repro.obs.tracing import build_span_tree, list_traces, render_trace

#: Small enough to finish in well under a minute, large enough to span
#: every generator family and exercise the shared-memory graph plane.
PROFILE = Profile(
    name="chaossmoke",
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

#: Cell whose worker is stalled (heartbeats suspended) once: drives the
#: lease-expiry -> revoke -> re-dispatch path. SIGKILLs drive the
#: dead-worker path. Both must be absorbed within the one build.
STALL_TARGET = "cc-ga-ne200-a2.0"
N_KILL_TOKENS = 2


def fail(message: str) -> None:
    print(f"CHAOS-SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_no_workers_left(build: str) -> None:
    """Every crew worker a build spawned — replacements included — is
    reaped by the time the build returns."""
    alive = multiprocessing.active_children()
    if alive:
        fail(f"{build} build left worker processes alive: "
             f"{sorted(p.name for p in alive)}")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-smoke-"))
    pre_segments = set(glob.glob("/dev/shm/repro-shm-*"))

    print("== clean reference build (inline) ==")
    clean = build_corpus(PROFILE, store=ResultStore(workdir / "clean"),
                         workers=1)
    check_no_workers_left("clean")
    if clean.unexpected_failures:
        fail(f"clean build had unexpected failures: "
             f"{[str(f.failure) for f in clean.unexpected_failures]}")
    expected = [(v.tag, v.as_array().tolist()) for v in clean.vectors()]

    # Finite fault budgets so the build provably converges: each
    # SIGKILL and the stall consume one token.
    kill_tokens = workdir / "kill-tokens"
    kill_tokens.mkdir()
    for i in range(N_KILL_TOKENS):
        (kill_tokens / f"token-{i}").touch()
    stall_tokens = workdir / "stall-tokens"
    stall_tokens.mkdir()
    (stall_tokens / "token-0").touch()
    os.environ["REPRO_CHAOS_KILL"] = f"{kill_tokens}:1.0"
    os.environ["REPRO_INJECT_STALL"] = f"{STALL_TARGET}:30"
    os.environ["REPRO_INJECT_STALL_TOKENS"] = str(stall_tokens)

    print("== supervised build under SIGKILL + stall injection ==")
    obs_dir = workdir / "obs"
    corpus = build_corpus(
        PROFILE, store=ResultStore(workdir / "chaos"), workers=2,
        options=BuildOptions(
            retries=0, lease_timeout_s=2.0,
            max_lease_expiries=N_KILL_TOKENS + 3),
        obs="full", obs_dir=obs_dir)
    for env in ("REPRO_CHAOS_KILL", "REPRO_INJECT_STALL",
                "REPRO_INJECT_STALL_TOKENS"):
        os.environ.pop(env, None)
    print(corpus.summary())
    check_no_workers_left("chaos")

    if list(kill_tokens.iterdir()) or list(stall_tokens.iterdir()):
        fail("fault injection never fired — the gate tested nothing")
    if corpus.unexpected_failures:
        fail(f"chaos build had unexpected failures: "
             f"{[str(f.failure) for f in corpus.unexpected_failures]}")
    if corpus.interrupted:
        fail("chaos build reported interrupted")
    if corpus.lease_expiries + corpus.workers_replaced < 1:
        fail("no lease expiry or worker replacement recorded — the "
             "scheduler absorbed nothing")
    actual = [(v.tag, v.as_array().tolist()) for v in corpus.vectors()]
    if actual != expected:
        fail("chaos build vectors differ from the clean build")

    # -- causal-trace contract: one connected tree, zero orphans, and
    # a critical path that accounts for the wall despite the chaos.
    events = read_all_events(obs_dir)
    # Every kill landed on a cell, which then started again whole.
    killed = [e.get("task") for e in events
              if e.get("kind") == "scheduler"
              and e.get("action") == "worker-died"]
    if len(killed) != N_KILL_TOKENS or not all(
            str(t).startswith("run:") for t in killed):
        fail(f"expected {N_KILL_TOKENS} workers to die holding a cell, "
             f"saw {killed}")
    starts = [e.get("key") for e in events if e.get("kind") == "cell_start"]
    rerun = [t for t in killed if starts.count(t[len("run:"):]) >= 2]
    if rerun != killed:
        fail(f"killed cells that never started again: "
             f"{sorted(set(killed) - set(rerun))}")
    traces = list_traces(events)
    if len(traces) != 1:
        fail(f"expected one trace, found {traces}")
    tree = build_span_tree(events)
    if tree.orphans:
        fail(f"{len(tree.orphans)} orphan spans — events were lost: "
             f"{[n.name or n.span_id for n in tree.orphans]}")
    if len(tree.roots) != 1:
        fail(f"trace has {len(tree.roots)} roots, want exactly the "
             f"build span")
    cp = critical_path(events)
    total = sum(cp["decomposition"].values())
    wall = cp["reported_wall_s"]
    if abs(total - wall) > 0.10 * wall + 0.5:
        fail(f"critical-path decomposition ({total:.3f}s) strays >10% "
             f"from the build wall ({wall:.3f}s)")
    artifact_dir = os.environ.get("SMOKE_ARTIFACT_DIR")
    if artifact_dir:
        out = Path(artifact_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "chaos-trace.txt").write_text(
            render_trace(events), encoding="utf-8")
        (out / "chaos-critical-path.txt").write_text(
            render_critical_path(events), encoding="utf-8")
        print(f"trace/critical-path artifacts written to {out}")

    leaked_shm = set(glob.glob("/dev/shm/repro-shm-*")) - pre_segments
    if leaked_shm:
        fail(f"leaked shared-memory segments: {sorted(leaked_shm)}")

    print(f"CHAOS-SMOKE PASS: {corpus.n_runs} runs bit-identical under "
          f"{corpus.workers_replaced} worker replacements and "
          f"{corpus.lease_expiries} lease expiries; trace "
          f"{tree.trace_id} connected ({len(tree.nodes)} spans, "
          f"0 orphans), critical path {total:.3f}s vs wall {wall:.3f}s")


if __name__ == "__main__":
    main()
