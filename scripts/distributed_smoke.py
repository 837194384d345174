#!/usr/bin/env python3
"""Time-bounded multi-node chaos smoke for the distributed queue.

Runs, on a single machine:

1. an inline reference build of a tiny profile (the ground truth),
2. a distributed build of the same profile — a coordinator plus two
   real ``repro node`` agent subprocesses sharing a queue directory —
   with chaos injected into both agents:

   - one agent is SIGKILLed mid-lease (``REPRO_INJECT_NODE_KILL``),
   - one agent freezes past its lease, then wakes and tries to
     publish with a fenced epoch (``REPRO_INJECT_NODE_FREEZE``),

   The coordinator waits on events, not on a cadence, and would drain
   these 18 cells before a peer's interpreter is up. Admission is this
   script's business: it holds the coordinator's one worker on its
   first cell (``REPRO_INJECT_STALL``, one token, shorter than the
   lease) until both peers have joined.

and asserts the robustness contract end to end:

- the distributed corpus vectors are **bit-identical** to the inline
  reference (same arrays, same tags, same order),
- at least one stale-epoch store attempt was **rejected** (the woken
  zombie's publish hit its fence) and **zero** stale-epoch stores
  were accepted (no stale done markers),
- every revoked lease was re-dispatched (requeues >= 1, all cells
  resolved),
- the queue directory is swept away and no shared-memory or
  heartbeat artifacts leak,
- every peer's event sink was on disk before its final beat, so the
  merge left no ``<obs_dir>/sinks/`` behind,
- ``repro stats`` counts what the log holds: its claim and shm-publish
  totals equal the ``node claim`` and ``shm publish`` events, the
  SIGKILLed victim's included (they were flushed before it died),
- the coordinator declared the victim lost knowing its shm segment
  names (a peer beats them before it runs a task on the new graph),
  so it can unlink them itself,
- the full-obs event log reconstructs as **one connected trace with
  zero orphan spans** across the killed node, the fenced zombie, and
  every re-dispatch (trace + critical-path reports are written to
  ``$SMOKE_ARTIFACT_DIR`` when set, for CI artifact upload).

Exit 0 on success. The whole run is bounded by ``--timeout`` seconds
(default 300) so CI can never hang on it.
"""

from __future__ import annotations

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

FREEZE_S = 6.0
LEASE_TIMEOUT_S = 2.5
#: How long the coordinator's worker is held on its first cell: two
#: interpreter starts (~0.7 s each) fit, the crew's lease does not end.
ADMISSION_S = 1.5
ADMISSION_ENVS = ("REPRO_INJECT_STALL", "REPRO_INJECT_STALL_TOKENS")


def log(msg: str) -> None:
    print(f"[dist-smoke] {msg}", flush=True)


def fail(msg: str) -> "int":
    print(f"[dist-smoke] FAIL: {msg}", flush=True)
    return 1


def tiny_profile():
    from repro.experiments.config import Profile

    return Profile(
        name="dist-smoke", ga_sizes=(200, 500), cf_sizes=(200,),
        matrix_rows=(16,), grid_sides=(8,), mrf_edges=(112,),
        alphas=(2.0,), ad_n_hashes=16, coverage_samples=100, seed=3)


def vector_fingerprint(corpus):
    """Order-preserving (tag, bytes) fingerprint of every vector."""
    return [(v.tag, v.as_array().tobytes()) for v in corpus.vectors()]


def spawn_agent(queue_dir: Path, scratch: Path, name: str,
                inject: "dict[str, str]") -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k not in ADMISSION_ENVS}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    env.update(inject)
    out = open(scratch / f"{name}.log", "w", encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "node", str(queue_dir),
         "--workers", "1", "--node-id", name,
         "--manifest-wait", "60"],
        env=env, stdout=out, stderr=subprocess.STDOUT)


def run(timeout_s: float, keep: bool) -> int:
    from repro.experiments.config import BuildOptions
    from repro.experiments.corpus import build_corpus
    from repro.experiments.results import ResultStore
    from repro.obs.events import SINKS_DIRNAME

    signal.signal(signal.SIGALRM,
                  lambda *_: (_ for _ in ()).throw(
                      TimeoutError(f"smoke exceeded {timeout_s:.0f}s")))
    signal.alarm(int(timeout_s))

    scratch = Path(tempfile.mkdtemp(prefix="repro-dist-smoke-"))
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    queue_dir = scratch / "queue"
    shm_before = set(glob.glob("/dev/shm/repro-shm-*"))
    profile = tiny_profile()
    agents: "list[subprocess.Popen]" = []
    try:
        log("inline reference build ...")
        t0 = time.monotonic()
        inline = build_corpus(profile,
                              store=ResultStore(scratch / "store-inline"),
                              workers=1)
        log(f"inline: {len(inline.runs)} runs, "
            f"{len(inline.failures)} failures "
            f"({time.monotonic() - t0:.1f}s)")
        if inline.failures:
            return fail("reference build has failures")
        expected = vector_fingerprint(inline)

        log("distributed chaos build: coordinator + victim (SIGKILL "
            f"mid-lease) + sleeper (frozen {FREEZE_S:.0f}s past its "
            f"{LEASE_TIMEOUT_S}s lease) ...")
        agents = [
            spawn_agent(queue_dir, scratch, "victim",
                        {"REPRO_INJECT_NODE_KILL": "*:1"}),
            spawn_agent(queue_dir, scratch, "sleeper",
                        {"REPRO_INJECT_NODE_FREEZE": f"*:{FREEZE_S}"}),
        ]
        tokens = scratch / "admission-tokens"
        tokens.mkdir()
        (tokens / "token-0").touch()
        # Every run task id starts with the profile name; the one token
        # bounds the hold to the first cell dispatched.
        os.environ["REPRO_INJECT_STALL"] = f"{profile.name}:{ADMISSION_S}"
        os.environ["REPRO_INJECT_STALL_TOKENS"] = str(tokens)
        t0 = time.monotonic()
        obs_dir = scratch / "obs"
        try:
            dist = build_corpus(profile,
                                store=ResultStore(scratch / "store-dist"),
                                workers=1,
                                distributed=queue_dir,
                                options=BuildOptions(
                                    lease_timeout_s=LEASE_TIMEOUT_S),
                                obs="full", obs_dir=obs_dir)
        finally:
            for env in ADMISSION_ENVS:
                os.environ.pop(env, None)
        log(f"distributed: {len(dist.runs)} runs, "
            f"{len(dist.failures)} failures, "
            f"nodes seen {dist.nodes_seen}, lost {dist.nodes_lost}, "
            f"requeues {dist.queue_requeues}, "
            f"stale rejections {dist.stale_epoch_rejections} "
            f"({time.monotonic() - t0:.1f}s)")

        if dist.nodes_seen != 3:
            # A peer that arrives after the sweep waits out its whole
            # --manifest-wait; say what happened instead.
            return fail(f"peers never joined: nodes seen "
                        f"{dist.nodes_seen}, want 3")
        for proc in agents:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                return fail(f"agent pid {proc.pid} did not exit")
        log(f"agent exits: victim={agents[0].returncode} "
            f"sleeper={agents[1].returncode}")

        # --- the robustness contract -----------------------------------
        if dist.failures:
            return fail("distributed build has failures")
        got = vector_fingerprint(dist)
        if got != expected:
            return fail("distributed vectors are NOT bit-identical "
                        "to the inline reference")
        if dist.nodes_lost < 1:
            return fail("chaos produced no lost nodes")
        if dist.queue_requeues < 1:
            return fail("no revoked lease was re-dispatched")
        if dist.stale_epoch_rejections < 1:
            return fail("the fenced zombie's publish was never "
                        "rejected (stale_epoch_rejections == 0)")
        if dist.stale_done_markers != 0:
            return fail(f"{dist.stale_done_markers} stale-epoch stores "
                        "were accepted before fencing caught them")
        if dist.queue_leftovers != 0:
            return fail(f"{dist.queue_leftovers} queue files survived "
                        "the sweep")
        if queue_dir.exists():
            return fail("queue directory was not removed")
        sinks = obs_dir / SINKS_DIRNAME
        if sinks.exists():
            return fail(f"{sinks} outlived the merge (a peer flushed "
                        f"after its done beat): "
                        f"{sorted(p.name for p in sinks.iterdir())}")
        shm_leaked = set(glob.glob("/dev/shm/repro-shm-*")) - shm_before
        if shm_leaked:
            return fail(f"leaked shm segments: {sorted(shm_leaked)}")
        if agents[1].returncode != 0:
            return fail("sleeper agent should recover and exit 0, "
                        f"got {agents[1].returncode}")

        # --- the causal-trace contract ----------------------------------
        from repro.obs.critpath import critical_path, render_critical_path
        from repro.obs.events import read_all_events
        from repro.obs.tracing import (build_span_tree, list_traces,
                                       render_trace)
        events = read_all_events(obs_dir)
        traces = list_traces(events)
        if len(traces) != 1:
            return fail(f"expected one trace across the killed node and "
                        f"every re-dispatch, found {traces}")
        tree = build_span_tree(events)
        if tree.orphans:
            return fail(f"{len(tree.orphans)} orphan spans — node "
                        f"events were lost: "
                        f"{[n.name or n.span_id for n in tree.orphans]}")
        if len(tree.roots) != 1:
            return fail(f"trace has {len(tree.roots)} roots, want "
                        f"exactly the build span")
        cp = critical_path(events)
        total = sum(cp["decomposition"].values())
        wall = cp["reported_wall_s"]
        if abs(total - wall) > 0.10 * wall + 0.5:
            return fail(f"critical-path decomposition ({total:.3f}s) "
                        f"strays >10% from the build wall "
                        f"({wall:.3f}s)")
        artifact_dir = os.environ.get("SMOKE_ARTIFACT_DIR")
        if artifact_dir:
            out = Path(artifact_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "dist-trace.txt").write_text(
                render_trace(events), encoding="utf-8")
            (out / "dist-critical-path.txt").write_text(
                render_critical_path(events), encoding="utf-8")
            log(f"trace/critical-path artifacts written to {out}")
        log(f"trace {tree.trace_id} connected: {len(tree.nodes)} spans, "
            f"0 orphans; critical path {total:.3f}s vs wall {wall:.3f}s")

        # --- one record: the report is a fold over the same log ---------
        from repro.obs.stats import stats_payload

        payload = stats_payload(obs_dir)
        claims = sum(1 for e in events if e.get("kind") == "node"
                     and e.get("action") == "claim")
        publishes = sum(1 for e in events if e.get("kind") == "shm"
                        and e.get("action") == "publish")
        reported = (sum(n["claims"] for n in payload["nodes"].values()),
                    payload.get("shm", {}).get("publishes"))
        if reported != (claims, publishes):
            return fail(f"repro stats reports (claims, shm publishes) "
                        f"{reported}, the event log holds "
                        f"{(claims, publishes)}")
        victim = payload["nodes"].get("victim", {})
        if not (victim.get("claims") and victim.get("shm_publishes")):
            return fail(f"repro stats lost the SIGKILLed victim's claim "
                        f"or shm publish: {victim}")
        log(f"stats: {claims} claims and {publishes} shm publishes, "
            f"victim {victim['claims']} / {victim['shm_publishes']}")
        # The victim beat its segment names before its first run task,
        # so the coordinator knew them when it declared the node lost
        # (the multiprocessing resource tracker usually unlinks them
        # first, so a ``segment-reaped`` event is not guaranteed).
        known = [e.get("segments", 0) for e in events
                 if e.get("action") == "node-lost"
                 and e.get("node") == "victim"]
        if not known or not all(known):
            return fail(f"the coordinator lost the victim knowing no shm "
                        f"segment of it: node-lost segments {known}")
        log(f"victim lost with {known[0]} shm segment(s) on record")

        log("OK: bit-identical under chaos, fencing held, no leaks")
        return 0
    except TimeoutError as exc:
        return fail(str(exc))
    finally:
        signal.alarm(0)
        for proc in agents:
            if proc.poll() is None:
                proc.kill()
        if keep:
            log(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="overall wall-clock bound in seconds")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory for debugging")
    args = parser.parse_args()
    return run(args.timeout, args.keep)


if __name__ == "__main__":
    raise SystemExit(main())
