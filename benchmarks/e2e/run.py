"""End-to-end benchmark of the corpus -> design pass.

Two ways in:

``python benchmarks/e2e/run.py [--seed 7] [--out DIR] [--reps 5]``
    The ledger. Runs the six workloads ``--reps`` times with tracing
    off and once traced, checks every output, prints every metric by
    name with unit, n and bound, and writes ``BENCH_e2e.json`` plus one
    span file per workload to ``--out``. ``--check`` does the same on
    shrunken workloads in well under a minute.

``python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``
    One workload at its ``short`` size for ``S`` seconds, for the driver
    that holds later changes to ``BENCHMARK.json``: one interpreter sets
    up once and repeats the pass, cold each time, while ``S`` lasts; the
    first pass warms up and every metric is the median of the others.
    ``setup_s`` is the median of five set-ups, each in an interpreter
    of its own. Prints one JSON object as its last line, the end-to-end
    metrics with ``--trace 0`` and the per-layer metrics with
    ``--trace 1``.

Inputs are pinned (see ``workloads.py``): ``--seed`` is taken and
recorded, and no input depends on it.

Either way this is one closed-loop driver process: the next rep starts
when the previous one has returned. Every rep runs in a fresh
interpreter with ``REPRO_*`` scrubbed, the hash seed fixed and
BLAS/OpenMP pinned to one thread; every pass starts with the graph
cache empty, on a store, queue and telemetry directory of its own that
is removed afterwards, and never uses more than two workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Before NumPy is imported anywhere below.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Stores, queues and telemetry of running reps; always inside the tree.
WORK = HERE / ".work"
RESULTS = HERE / "results"
EXPECTED_FILES = ("cells", "ensembles")
#: Workloads whose behavior vectors must be bit-identical: one corpus,
#: four ways of getting it.
SAME_CORPUS = ("smoke-inline", "smoke-fabric", "smoke-distqueue",
               "warm-redesign")
#: Exact counters: they must read the same on every pass of a workload.
EXACT = ("engine.iterations", "engine.edge_reads", "engine.updates",
         "engine.messages")
#: Set-ups a ``--workload`` run times, each in its own interpreter.
SETUP_SAMPLES = 5
#: Ledger-only metrics that take two runs or two workloads to compute,
#: with their units.
DERIVED = {
    "bench.trace_overhead_ratio": "ratio",
    "fabric.efficiency": "ratio",
    "distqueue.efficiency": "ratio",
    "obs.full_overhead_ratio": "ratio",
}

#: What ``compare.py`` holds a later ledger to, as the share of the
#: base's median a metric may worsen by: the medians of ``--reps`` passes
#: resolve these. ``BENCHMARK.json`` carries the wider bounds that ten
#: time-boxed ``--workload`` runs resolve, and cannot name a metric
#: that some workload lacks. A stage metric is bounded on the
#: workloads that have the stage.
LEDGER_BOUNDS = {
    "pass_ref_s": 0.10,
    "pass_wall_s": 0.10,
    "stage.build_wall_s": 0.10,
    "stage.design_wall_s": 0.10,
    "stage.cells_per_s": 0.10,
    "stage.edge_reads_per_s": 0.10,
    "setup_s": 0.15,
    "peak_rss_mb": 0.15,
}

sys.path[:0] = [str(SRC), str(HERE)]

from compare import drifted  # noqa: E402


def contract() -> dict:
    """``BENCHMARK.json``: the one place metrics and workloads are named."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected(root: Path) -> "dict[str, dict]":
    return {name: json.loads((root / f"{name}.json").read_text())
            for name in EXPECTED_FILES}


# ----------------------------------------------------------------------
# One rep: runs in the child interpreter
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    return sum(used.ru_utime + used.ru_stime for used in
               map(resource.getrusage,
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


#: Metric -> the span whose summed duration it is.
SPAN_SECONDS = {
    "stage.build_wall_s": "build",
    "stage.design_wall_s": "design",
    "engine.run_s": "engine.run",
    "generators.generate_s": "generators.generate",
    "graph_cache.materialize_s": "graph_cache.materialize",
    "graph.shm.publish_s": "graph.shm.publish",
    "graph.shm.attach_s": "graph.shm.attach",
    "behavior.metrics_s": "behavior.metrics",
    "behavior.validate_s": "behavior.validate",
    "behavior.normalize_s": "behavior.normalize",
    "results.save_s": "results.save",
    "results.load_s": "results.load",
    "ensemble.spread_curve_s": "ensemble.spread_curve",
    "ensemble.coverage_beam_s": "ensemble.coverage_beam",
    "ensemble.greedy_s": "ensemble.greedy",
    "ensemble.topk_s": "ensemble.topk",
    "ensemble.rescore_s": "ensemble.rescore",
}


def span_seconds(spans: list) -> "dict[str, float]":
    """Summed duration of ``spans`` by span name."""
    from spans import duration

    seconds: dict[str, float] = {}
    for s in spans:
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + duration(s)
    return seconds


def layer_seconds(seconds: "dict[str, float]") -> "dict[str, float]":
    """The metrics that are the summed duration of one span name."""
    return {metric: seconds[span] for metric, span in SPAN_SECONDS.items()
            if span in seconds}


def pass_metrics(spans: list, out, cache_before: tuple, rss: float,
                 traced: bool) -> dict:
    """Every metric one pass can give, by name. ``spans`` is the pass's
    subtree. A layer the pass has no span of is left out (and reads 0
    where a value must be printed)."""
    from repro.experiments.graph_cache import default_cache

    from spans import duration, self_times
    from workloads import WORKERS

    m: dict[str, float] = {"peak_rss_mb": rss}
    seconds = span_seconds(spans)
    for s in spans:
        if s["name"] == "engine.run":
            alg = f"engine.{s['algorithm']}.run_s"
            m[alg] = m.get(alg, 0.0) + duration(s)
    m["pass_wall_s"] = seconds["pass"]
    m.update(layer_seconds(seconds))

    runs = [] if out.corpus is None else out.corpus.runs
    reads = sum(int(r.trace.series("edge_reads").sum()) for r in runs)
    build = seconds.get("build")
    if build:
        m["stage.cells_per_s"] = out.rounds * len(out.plan) / build
        m["stage.edge_reads_per_s"] = out.rounds * reads / build
    executed = [r for r in runs if r.source == "run"]
    if executed:
        m["engine.edge_reads"] = reads
        m["engine.iterations"] = sum(r.trace.n_iterations for r in executed)
        for counter in ("updates", "messages"):
            m[f"engine.{counter}"] = sum(
                int(r.trace.series(counter).sum()) for r in executed)
        for r in executed:
            name = f"engine.{r.algorithm}.iterations"
            m[name] = m.get(name, 0) + r.trace.n_iterations
    if "engine.run" in seconds:
        m["engine.us_per_iteration"] = (1e6 * seconds["engine.run"]
                                        / m["engine.iterations"])
        m["engine.ns_per_edge_read"] = 1e9 * seconds["engine.run"] / reads

    generated = [s for s in spans if s["name"] == "generators.generate"]
    if generated:
        m["generators.graphs"] = len(generated)
        m["generators.edges_per_s"] = (sum(s["edges"] for s in generated)
                                       / seconds["generators.generate"])
    cache = default_cache()
    hits, misses = (cache.hits - cache_before[0],
                    cache.misses - cache_before[1])
    if hits + misses:
        m["graph_cache.hit_ratio"] = hits / (hits + misses)
    if out.store is not None:
        m["results.bytes"] = sum(f.stat().st_size for f in
                                 Path(out.store.root).glob("*.json"))
    cells = sorted(duration(s) for s in spans if s["name"] == "cell")
    if cells:
        m["cell.s.p50"] = cells[len(cells) // 2]
        m["cell.s.p95"] = cells[int(len(cells) * 0.95)]
    # The largest ensemble found under each metric: size 20 at full scale.
    largest: dict[str, tuple] = {}
    for results in out.searches.values():
        for r in results:
            if len(r.indices) >= largest.get(r.metric, (0, 0.0))[0]:
                largest[r.metric] = (len(r.indices), r.score)
    m.update((f"ensemble.{kind}_score.20", score)
             for kind, (_, score) in largest.items())

    m.update(out.layer)
    for layer in ("fabric", "distqueue"):
        if f"{layer}.reported_engine_s" in out.layer:
            m[f"{layer}.overhead_s"] = (
                build - out.layer[f"{layer}.reported_engine_s"] / WORKERS)
    if traced:
        # Time inside the pass but inside no call into the program.
        own = self_times(spans)
        m["bench.unattributed_frac"] = sum(
            own.get(name, 0.0) for name in ("pass", "build", "design", "cell")
        ) / seconds["pass"]
    return m


@functools.cache
def calibration_inputs() -> tuple:
    import numpy as np

    return (np.random.default_rng(0).integers(0, 1 << 20, size=1_000_000),
            json.dumps({str(i): [i, i * 0.5, str(i)] for i in range(5_000)}))


def numpy_kernel() -> None:
    """Sort + bincount + reduceat over 10^6 elements."""
    import numpy as np

    keys, _ = calibration_inputs()
    ordered = np.sort(keys)
    np.bincount(keys, minlength=1 << 20)
    np.add.reduceat(ordered, np.arange(0, ordered.size, 64))


def python_kernel() -> dict:
    """As long as ``numpy_kernel`` but inside the interpreter: parse,
    count, build a dict."""
    parsed = json.loads(calibration_inputs()[1])
    total = 0
    for i in range(150_000):
        total += (i * 7) % 13
    return {key: row[1] + total for key, row in parsed.items()}


def median_seconds(kernel, n: int, warm: int) -> float:
    times = []
    for _ in range(warm + n):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times[warm:])


def calibrate() -> float:
    """Median seconds of the fixed NumPy kernel. Says how fast the
    machine is right now."""
    return median_seconds(numpy_kernel, 33, warm=2)


#: What ``python_kernel`` + ``numpy_kernel`` take on the machine the
#: baseline was made on when its host is quiet.
REFERENCE_S = 0.025


def slowdown() -> float:
    """How many times slower than the reference the machine is right
    now, for interpreter-bound and array-bound work in equal parts. The
    host slows the same instructions by up to 30 % for seconds to
    minutes at a time; a wall divided by the slowdown read just before
    and after it is the wall at reference speed."""
    return median_seconds(lambda: (python_kernel(), numpy_kernel()),
                          5, warm=1) / REFERENCE_S


def run_rep(args: argparse.Namespace) -> dict:
    """Set up, run and check one workload in this (fresh) interpreter:
    one pass, or passes while ``--seconds`` last."""
    if args.rep == "calibrate":
        return {"calib_s": calibrate()}
    started = time.perf_counter()
    import numpy
    from repro.experiments.graph_cache import default_cache

    import checks
    from spans import Recorder, duration, subtree
    from workloads import WORKERS, WORKLOADS, Context
    import_s = time.perf_counter() - started

    name = args.rep
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    rep_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{name}-"))
    ctx = Context(size=args.size, traced=bool(args.trace), obs=args.obs,
                  work=rep_dir)
    rec = Recorder()
    try:
        with rec.span("setup") as setup:
            state = workload.setup(ctx)
        speed = [slowdown()]
        timed = {"setup_s": (import_s + duration(setup)) / speed[0],
                 "cli.import_s": import_s}
        if args.setup_only:
            return {"metrics": timed}
        expected = load_expected(Path(args.expected))
        calib = [calibrate()] if args.trace else []
        cache = default_cache()
        passes, outcomes = [], set()
        first = time.perf_counter()
        while True:
            # Cold every time: no graph cached, a store of its own.
            one = dataclasses.replace(ctx,
                                      work=rep_dir / f"pass-{len(passes)}")
            one.work.mkdir()
            cache.clear()
            before = (cache.hits, cache.misses)
            cpu = cpu_seconds()
            with rec.span("pass") as span:
                out = workload.run(one, state, rec)
            cpu = cpu_seconds() - cpu
            speed.append(slowdown())
            passes.append(pass_metrics(subtree(rec.spans, span["id"]), out,
                                       before, peak_rss_mb(), ctx.traced))
            last = passes[-1]
            last["machine.slowdown"] = (speed[-2] + speed[-1]) / 2
            last["pass_cpu_s"] = cpu
            # The computing part of the wall at reference speed; what the
            # pass spent waiting on timers is left as measured.
            busy = min(last["pass_wall_s"], cpu / workload.processes)
            last["pass_ref_s"] = (last["pass_wall_s"] - busy
                                  * (1 - 1 / last["machine.slowdown"]))
            outcomes.add(json.dumps(checks.observed(name, ctx, out),
                                    sort_keys=True))
            # Stop when one more pass of the mean length would not fit.
            spent = time.perf_counter() - first
            if spent * (1 + 1 / len(passes)) > args.seconds:
                break
            shutil.rmtree(one.work)
        # The first of several passes pays the lazy imports and grows
        # the heap: it warms up, the others are measured.
        measured = passes[1:] or passes
        metrics = {metric: statistics.median(p[metric] for p in measured)
                   for metric in measured[0]}
        metrics["peak_rss_mb"] = passes[-1]["peak_rss_mb"]
        if ctx.traced and workload.probe is not None:
            with rec.span("probe") as span:
                metrics.update(workload.probe(rec, out))
            metrics.update(layer_seconds(span_seconds(
                subtree(rec.spans, span["id"]))))
        with rec.span("checks"):
            if out.vectors is None and out.corpus is not None:
                out.vectors = out.corpus.vectors(scheme="max")
            tally = checks.check_outputs(name, ctx, out, expected)
            tally.check(len(outcomes) == 1, f"{len(outcomes)} different "
                        f"outcomes in {len(passes)} passes of one input")
            digest = (None if out.vectors is None
                      else checks.vector_digest(out.vectors))
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if args.trace:
        calib.append(calibrate())
    metrics.update(timed)
    metrics.update(zip(("calib_s.start", "calib_s.end"), calib))
    return {"workload": name, "metrics": metrics, "workers": WORKERS,
            "numpy": numpy.__version__,
            "attempted": tally.attempted, "problems": tally.problems,
            "digest": digest, "spans": rec.spans,
            "observed": (checks.observed(name, ctx, out)
                         if args.update_expected else None)}


# ----------------------------------------------------------------------
# The driver process. It imports neither NumPy nor the program: a rep
# inherits the driver's resident set as the floor of its own peak.
# ----------------------------------------------------------------------
def spawn_rep(name: str, args: argparse.Namespace, *, size: str,
              trace: int = 0, obs: str = "off", seconds: float = 0.0,
              setup_only: bool = False) -> dict:
    """Run one rep in a fresh interpreter and return what it reports."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p])
    # Set and dict layouts, and with them allocation order, repeat.
    env["PYTHONHASHSEED"] = "0"
    WORK.mkdir(exist_ok=True)
    env["TMPDIR"] = str(WORK)
    command = [sys.executable, str(HERE / "run.py"), "--rep", name,
               "--size", size,
               "--trace", str(trace), "--obs", obs,
               "--seconds", str(seconds), "--expected", str(args.expected)]
    command += ["--setup-only"] * setup_only
    command += ["--update-expected"] * args.update_expected
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{name}: rep exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(values: "list[float]") -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def fold(reps: "list[dict]") -> "tuple[dict[str, list], int, list[str]]":
    """Per-metric values over ``reps``, plus what was attempted and
    what went wrong."""
    values: dict[str, list] = {}
    for rep in reps:
        for metric, value in rep["metrics"].items():
            values.setdefault(metric, []).append(value)
    attempted = sum(r["attempted"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    for metric in EXACT:
        attempted += 1
        if len(set(values.get(metric, [0]))) > 1:
            problems.append(f"{metric} does not repeat: {values[metric]}")
    return values, attempted, problems


def write_spans(out_dir: Path, name: str, rep: dict) -> None:
    """One span file per workload; its spans share the rep's id."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"spans-{name}.json").write_text(json.dumps(
        {"rep": f"{name}.traced", "workload": name, "spans": rep["spans"]}))


def run_contract(args: argparse.Namespace) -> int:
    """``--workload``: passes while ``--seconds`` last, one JSON line."""
    spec = contract()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    setups = [spawn_rep(args.workload, args, size="short", setup_only=True)
              for _ in range(SETUP_SAMPLES - 1)]
    rep = spawn_rep(args.workload, args, size="short", trace=args.trace,
                    seconds=args.seconds)
    values, attempted, problems = fold([rep])
    for other in setups:
        for metric, value in other["metrics"].items():
            values[metric].append(value)
    if args.trace:
        write_spans(Path(args.out or RESULTS), args.workload, rep)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": statistics.median(values.get(m["name"],
                                                                 [0.0])),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 1 if problems else 0


def run_ledger(args: argparse.Namespace) -> int:
    """Every workload, untraced ``--reps`` times and traced once."""
    spec = contract()
    defined = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    out_dir = Path(args.out) if args.out else (None if args.check
                                               else RESULTS)
    size = args.size
    ledger = {"schema": 1, "seed": args.seed, "check": args.check,
              "size": size, "reps": args.reps,
              "machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version()},
              "calib_s": {"start": spawn_rep("calibrate", args,
                                             size=size)["calib_s"]},
              "workloads": {}}
    book = ledger["workloads"]
    seen: dict = {part: {} for part in EXPECTED_FILES}
    digests, traced, plain = set(), {}, {}
    # Round by round, not workload by workload: this machine's slow
    # phases last minutes, and would otherwise land on one workload.
    names = [w["name"] for w in spec["workloads"]]
    untraced: dict[str, list] = {name: [] for name in names}
    for i in range(args.reps):
        print(f"# round {i + 1} of {args.reps}, untraced", flush=True)
        for name in names:
            untraced[name].append(spawn_rep(name, args, size=size))
    print("# traced round", flush=True)
    for w in spec["workloads"]:
        name, reps = w["name"], untraced[w["name"]]
        deep = traced[name] = spawn_rep(name, args, size=size, trace=1)
        if out_dir:
            write_spans(out_dir, name, deep)
        plain[name], attempted, problems = fold(reps)
        values = dict(plain[name])
        deeper, more, worse = fold([deep])
        for metric, found in deeper.items():
            values.setdefault(metric, found)
        for rep in reps + [deep]:
            if name in SAME_CORPUS:
                digests.add(rep["digest"])
            for part in seen:
                seen[part].update((rep["observed"] or {}).get(part, {}))
        ledger["machine"]["numpy"] = deep["numpy"]
        book[name] = {
            "why": w["why"], "attempted": attempted + more,
            "problems": problems + worse,
            "metrics": {metric: {**summarise(values.get(metric, [0.0])),
                                 "unit": d["unit"], "better": d["better"],
                                 "bound": (LEDGER_BOUNDS.get(metric)
                                           if metric in values else None)}
                        for metric, d in defined.items()},
            "derived": {"bench.trace_overhead_ratio":
                        deeper["pass_wall_s"][0]
                        / statistics.median(values["pass_wall_s"])}}

    # What takes two runs or two workloads to see.
    def median(name: str, metric: str) -> float:
        return statistics.median(plain[name][metric])

    inline = traced["smoke-inline"]
    for layer in ("fabric", "distqueue"):
        book[f"smoke-{layer}"]["derived"][f"{layer}.efficiency"] = (
            inline["metrics"]["engine.run_s"]
            / (inline["workers"] * median(f"smoke-{layer}",
                                          "stage.build_wall_s")))
    full = spawn_rep("smoke-fabric", args, size=size, obs="full")
    fabric = book["smoke-fabric"]
    fabric["derived"]["obs.full_overhead_ratio"] = (
        full["metrics"]["pass_wall_s"]
        / median("smoke-fabric", "pass_wall_s"))
    fabric["attempted"] += full["attempted"] + 1  # + the check below
    fabric["problems"] += full["problems"]
    if len(digests) != 1:
        fabric["problems"].append(
            f"{len(digests)} different sets of behavior vectors came out "
            f"of the execution paths {SAME_CORPUS}")

    ledger["calib_s"]["end"] = spawn_rep("calibrate", args,
                                         size=size)["calib_s"]
    ledger["noisy"] = drifted(ledger)
    for entry in book.values():
        entry["failed"] = len(entry["problems"])
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
    report(ledger)
    if args.update_expected:
        root = Path(args.expected)
        root.mkdir(parents=True, exist_ok=True)
        for part, found in seen.items():
            path = root / f"{part}.json"
            kept = json.loads(path.read_text()) if path.exists() else {}
            path.write_text(json.dumps({**kept, **found}, indent=1,
                                       sort_keys=True) + "\n")
        print(f"reference rewritten under {root}")
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "BENCH_e2e.json").write_text(
            json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out_dir / 'BENCH_e2e.json'}")
    return 1 if any(entry["failed"] for entry in book.values()) else 0


def report(ledger: dict) -> None:
    """Every metric by name, with unit, n and bound."""
    for name, entry in ledger["workloads"].items():
        print(f"\n== {name}: failed_frac {entry['failed_frac']:.4f} "
              f"({entry['failed']} of {entry['attempted']})")
        for problem in entry["problems"]:
            print(f"   FAILED {problem}")
        print(f"   {'metric':<32}{'median':>14} {'unit':<8}"
              f"{'min':>12}{'max':>12}{'n':>3}  bound")
        for metric, m in entry["metrics"].items():
            bound = "" if m["bound"] is None else f"{m['bound']:.0%}"
            print(f"   {metric:<32}{m['median']:>14.6g} {m['unit']:<8}"
                  f"{m['min']:>12.6g}{m['max']:>12.6g}{m['n']:>3}  {bound}")
        for metric, value in entry["derived"].items():
            print(f"   {metric:<32}{value:>14.6g} "
                  f"{DERIVED[metric]:<8}{'(derived)':>27}")
    calib = ledger["calib_s"]
    print(f"\ncalib_s.start {calib['start']:.6f} s, calib_s.end "
          f"{calib['end']:.6f} s" + ("  NOISY" if ledger["noisy"] else ""))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only and "
                        "print one JSON line (the driver's contract)")
    parser.add_argument("--seed", type=int, default=7,
                        help="recorded; inputs are pinned and ignore it")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="with --workload: repeat the pass while this "
                        "lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where BENCH_e2e.json and the span "
                        f"files go (default {RESULTS}; nowhere with --check)")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--check", action="store_true",
                        help="shrunken workloads, one rep: the self-test")
    parser.add_argument("--expected", default=str(HERE / "expected"))
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite the reference from what this run "
                        "observed, after checking against the old one")
    parser.add_argument("--rep", help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=("full", "short", "check"),
                        default="full", help="the ledger's passes: full, "
                        "or short as --workload runs them")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--obs", default="off", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    if args.rep:
        print(json.dumps(run_rep(args)))
        return 0
    if args.check:
        args.size, args.reps = "check", 1
    if args.workload:
        return run_contract(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
