"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``algorithms``
    List the registered vertex programs with domain and defaults.
``run``
    Run one algorithm on one synthetic graph and print its trace.
``characterize``
    Sweep (nedges, α) for one algorithm and print the metric table —
    the paper's Section-4 methodology for a single algorithm.
``corpus``
    Build (or load from cache) the behavior corpus for a profile and
    print its summary.
``design``
    Search the corpus for the best benchmark ensemble under spread or
    coverage, optionally restricted to chosen algorithms.
``ensemble``
    Best-ensemble curves over a range of sizes through the blocked
    search engine (DESIGN §15): pick metric, sizes, beam width and
    strategy.
``stats``
    Summarize the telemetry of a run directory: per-phase time
    breakdown, failure taxonomy, cache hit rates, iteration latency.
``tail``
    Print (and optionally follow) the structured event log of a run.
``node``
    Run a node agent against a shared distributed-build work queue
    (see ``corpus --distributed``): claim tasks, execute them with a
    local worker crew, publish results into the shared store.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Sequence

from repro._util.errors import ReproError

if TYPE_CHECKING:
    from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph computation behavior characterization and "
                    "robust benchmark design (Yang & Chien, HPDC 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list registered algorithms")

    run = sub.add_parser("run", help="run one algorithm on one graph")
    run.add_argument("algorithm")
    run.add_argument("--nedges", type=int, default=10_000,
                     help="edge count for ga/clustering/cf/mrf domains")
    run.add_argument("--alpha", type=float, default=2.5,
                     help="power-law exponent")
    run.add_argument("--nrows", type=int, default=100,
                     help="matrix rows / image side for matrix/grid domains")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--work-model", choices=("unit", "measured"),
                     default="unit")
    run.add_argument("--max-iterations", type=int, default=None)
    run.add_argument("--health-policy", choices=("strict", "degrade", "off"),
                     default=None,
                     help="convergence-watchdog policy: strict raises, "
                          "degrade stops early with a flagged partial "
                          "trace, off disables (default: strict)")
    run.add_argument("--inject-fault", default=None, metavar="KIND@ITER",
                     help="engine-level fault injection for testing: "
                          "nan@3, diverge@2 or counter@1")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write the full trace as JSON")
    _add_obs_arguments(run)

    cha = sub.add_parser("characterize",
                         help="sweep (nedges, α) for one algorithm")
    cha.add_argument("algorithm")
    cha.add_argument("--sizes", type=int, nargs="+",
                     default=[1_000, 3_000, 10_000])
    cha.add_argument("--alphas", type=float, nargs="+",
                     default=[2.0, 2.5, 3.0])
    cha.add_argument("--seed", type=int, default=7)

    cor = sub.add_parser("corpus", help="build the behavior corpus")
    cor.add_argument("--profile", default=None,
                     help="profile name (default: $REPRO_PROFILE or smoke)")
    cor.add_argument("--no-cache", action="store_true")
    cor.add_argument("--progress", action="store_true")
    cor.add_argument("--workers", type=int, default=1,
                     help="worker processes (runs are independent)")
    cor.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="per-run wall-clock limit (default: profile's)")
    cor.add_argument("--retries", type=int, default=None, metavar="N",
                     help="retries for transient failures (default: "
                          "profile's)")
    cor.add_argument("--resume", action="store_true",
                     help="re-execute cells with recorded transient "
                          "failures (crash/timeout); cached successes and "
                          "memory-budget failures are reused")
    cor.add_argument("--health-policy",
                     choices=("strict", "degrade", "off"), default=None,
                     help="per-run convergence-watchdog policy "
                          "(default: strict)")
    cor.add_argument("--lease-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="scheduler lease deadline; a worker whose "
                          "heartbeat goes silent this long has its task "
                          "revoked and re-dispatched; workers beat ten "
                          "times per lease (default: 60, 15 per node "
                          "of a distributed build)")
    cor.add_argument("--max-lease-expiries", type=int, default=None,
                     metavar="K",
                     help="quarantine a cell as poison after K lease "
                          "expiries (default: 3)")
    cor.add_argument("--distributed", default=None, metavar="QUEUE_DIR",
                     help="coordinate the build over a shared work "
                          "queue at this directory (a shared "
                          "filesystem path); peer machines join with "
                          "'repro node QUEUE_DIR'. Without peers the "
                          "build degrades to the local path.")
    _add_obs_arguments(cor)

    nod = sub.add_parser(
        "node", help="run a node agent for a distributed corpus build")
    nod.add_argument("queue_dir",
                     help="shared work-queue directory (same path the "
                          "coordinator passed to --distributed)")
    nod.add_argument("--workers", type=int, default=1,
                     help="local worker processes (default: 1)")
    nod.add_argument("--node-id", default=None, metavar="ID",
                     help="stable node identity (default: "
                          "<hostname>-<pid>-<rand>)")
    nod.add_argument("--manifest-wait", type=float, default=60.0,
                     metavar="SECONDS",
                     help="how long to wait for a coordinator to "
                          "publish the queue manifest (default: 60)")

    des = sub.add_parser("design", help="search for the best ensemble")
    des.add_argument("--profile", default=None)
    des.add_argument("--size", type=int, default=10)
    des.add_argument("--metric", choices=("spread", "coverage"),
                     default="spread")
    des.add_argument("--algorithms", nargs="+", default=None,
                     help="restrict the pool to these algorithms")
    des.add_argument("--scheme", choices=("max", "log"), default="max")
    des.add_argument("--samples", type=int, default=20_000,
                     help="coverage sample budget")

    ens = sub.add_parser(
        "ensemble",
        help="best-ensemble curves via the blocked search engine")
    ens.add_argument("--profile", default=None,
                     help="corpus profile (default: $REPRO_PROFILE or "
                          "smoke)")
    ens.add_argument("--metric", choices=("spread", "coverage"),
                     default="spread")
    ens.add_argument("--sizes", type=_positive_int, nargs="+",
                     default=[2, 4, 6, 8, 10],
                     help="ensemble sizes for the curve")
    ens.add_argument("--scheme", choices=("max", "log"), default="max")
    ens.add_argument("--beam-width", type=_positive_int, default=64)
    ens.add_argument("--strategy", choices=("beam", "greedy"),
                     default=None,
                     help="greedy = lazy-greedy submodular selection "
                          "(coverage only, (1-1/e) guarantee)")
    ens.add_argument("--samples", type=int, default=None,
                     help="coverage search sample budget "
                          "(default: 4000)")
    _add_obs_arguments(ens)

    ccz = sub.add_parser(
        "characterize-corpus",
        help="full Section-4-style characterization of a built corpus")
    ccz.add_argument("--profile", default=None)
    ccz.add_argument("--workers", type=int, default=1)

    rep = sub.add_parser(
        "report",
        help="assemble benchmark artifacts into one document")
    rep.add_argument("--artifacts", default="benchmarks/artifacts",
                     help="directory of *.txt artifacts")
    rep.add_argument("--store", default=None, metavar="DIR",
                     help="result-store directory whose cached traces "
                          "feed the run-metadata section (default: "
                          "$REPRO_CACHE_DIR or ./.repro_cache)")
    rep.add_argument("--out", default=None,
                     help="output path (default: stdout)")

    sta = sub.add_parser(
        "stats", help="summarize the telemetry of a run directory")
    sta.add_argument("run_dir",
                     help="observability directory (or its parent) "
                          "holding events.jsonl")
    sta.add_argument("--node", default=None, metavar="ID",
                     help="restrict the report to the events of one "
                          "node of a distributed build")
    sta.add_argument("--format", choices=("table", "json"),
                     default="table",
                     help="human tables (default) or a machine-"
                          "readable JSON payload for CI / services")

    trc = sub.add_parser(
        "trace",
        help="render a build's causal span tree + ASCII timeline")
    trc.add_argument("run_dir",
                     help="observability directory (or its parent) "
                          "holding events.jsonl")
    trc.add_argument("--trace-id", default=None, metavar="ID",
                     help="trace to render when the log holds several "
                          "(default: the first one seen)")
    trc.add_argument("--cell", default=None, metavar="LABEL",
                     help="render only the span subtree of one cell "
                          "(e.g. 'pagerank@ga(nedges=1000, α=2.0)')")
    trc.add_argument("--max-depth", type=int, default=None,
                     help="limit tree depth (default: unlimited)")
    trc.add_argument("--check", action="store_true",
                     help="exit 1 if any orphan span is found "
                          "(CI / chaos-smoke gate)")

    crt = sub.add_parser(
        "critical-path",
        help="decompose a build's wall clock along its critical path")
    crt.add_argument("run_dir",
                     help="observability directory (or its parent) "
                          "holding events.jsonl")
    crt.add_argument("--format", choices=("table", "json"),
                     default="table",
                     help="human report (default) or the raw JSON "
                          "decomposition")
    crt.add_argument("--max-chain", type=int, default=30,
                     help="path segments to print (default: 30)")

    ben = sub.add_parser(
        "bench", help="benchmark artifact utilities")
    ben_sub = ben.add_subparsers(dest="bench_command", required=True)
    cmp_ = ben_sub.add_parser(
        "compare",
        help="diff BENCH_*.json artifacts against a baseline with "
             "regression thresholds (warn-then-fail gate)")
    cmp_.add_argument("baseline",
                      help="directory holding the baseline BENCH_*.json")
    cmp_.add_argument("candidate",
                      help="directory holding the candidate BENCH_*.json")
    cmp_.add_argument("--warn-pct", type=float, default=10.0,
                      help="regression %% that triggers a warning "
                           "(default: 10)")
    cmp_.add_argument("--fail-pct", type=float, default=25.0,
                      help="regression %% that fails the command "
                           "(default: 25)")
    cmp_.add_argument("--strict", action="store_true",
                      help="also gate absolute wall/throughput metrics "
                           "(use when both sides ran on one machine)")
    cmp_.add_argument("--artifact", action="append", default=None,
                      metavar="NAME",
                      help="compare only this artifact (repeatable; "
                           "one absent from either side fails; "
                           "default: all known BENCH_*.json present "
                           "on both)")
    cmp_.add_argument("--format", choices=("table", "json"),
                      default="table",
                      help="human report (default) or the raw JSON "
                           "comparison")

    tai = sub.add_parser(
        "tail", help="print or follow a run's structured event log")
    tai.add_argument("run_dir",
                     help="observability directory (or its parent) "
                          "holding events.jsonl")
    tai.add_argument("-n", "--lines", type=int, default=20, metavar="N",
                     help="events to show from the end (default: 20)")
    tai.add_argument("--follow", action="store_true",
                     help="keep printing new events as they land")
    tai.add_argument("--for", dest="duration", type=float, default=None,
                     metavar="SECONDS",
                     help="with --follow, stop after this long "
                          "(default: until Ctrl-C)")
    tai.add_argument("--raw", action="store_true",
                     help="print raw JSON events instead of formatted "
                          "lines")
    tai.add_argument("--node", default=None, metavar="ID",
                     help="only show events stamped with this node id")
    return parser


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_obs_arguments(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--obs", choices=("off", "full"), default=None,
        help="telemetry level (default: $REPRO_OBS or off); 'full' "
             "records lifecycle and span events, with per-iteration "
             "timing summarised per run")
    sub_parser.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="telemetry output directory (default: $REPRO_OBS_DIR, or "
             "<store>/obs for corpus builds, or ./.repro_obs)")


def _cmd_algorithms(_args) -> int:
    from repro.algorithms.registry import iter_algorithms
    from repro.experiments.reporting import format_table

    rows = []
    for rec in iter_algorithms():
        rows.append((rec.name, rec.abbrev, rec.domain,
                     "yes" if rec.always_active else "no",
                     ", ".join(f"{k}={v}" for k, v in
                               rec.default_params.items()) or "-"))
    print(format_table(
        ["name", "paper", "domain", "always active", "default params"],
        rows, title="Registered algorithms"))
    return 0


def _spec_for(args, domain: str):
    from repro.experiments.config import GraphSpec

    if domain in ("ga", "clustering", "cf", "mrf"):
        return GraphSpec.for_domain(domain, nedges=args.nedges,
                                    alpha=args.alpha, seed=args.seed)
    return GraphSpec.for_domain(domain, nrows=args.nrows, seed=args.seed)


def _configure_cli_obs(args) -> "Path | None":
    """Install global telemetry for a one-shot command, if requested.

    Returns the event directory when telemetry is on, else None. The
    caller must pair this with :func:`_close_cli_obs` in a ``finally``
    block so even a failed run leaves a closed event log.
    """
    import os
    import uuid
    from pathlib import Path

    from repro.obs.events import EVENTS_FILENAME
    from repro.obs.telemetry import OBS_DIR_ENV, configure, resolve_obs_level

    level = resolve_obs_level(args.obs)
    if level == "off":
        return None
    obs_path = Path(args.obs_dir or os.environ.get(OBS_DIR_ENV)
                    or ".repro_obs")
    run_id = uuid.uuid4().hex[:12]
    tel = configure(level, run_id=run_id,
                    events_path=obs_path / EVENTS_FILENAME)
    # One-shot commands keep a random run id (no resume semantics to
    # re-link), but still root a trace so `repro trace` renders the
    # command's span tree.
    from repro.obs.tracing import TraceContext, derive_id

    trace_id = derive_id("cli", run_id)
    tel.set_trace(TraceContext(trace_id, derive_id(trace_id, "run")))
    tel.emit("run_start", command=args.command,
             algorithm=getattr(args, "algorithm", None), level=level)
    return obs_path


def _close_cli_obs(obs_path: "Path | None") -> None:
    """Close the command's span and tear down global telemetry."""
    if obs_path is None:
        return
    from repro.obs.telemetry import deactivate, get_telemetry, peak_rss_bytes

    get_telemetry().emit("run_end", peak_rss_bytes=peak_rss_bytes())
    deactivate()


def _cmd_run(args) -> int:
    from repro.algorithms.registry import info
    from repro.behavior.metrics import compute_metrics
    from repro.behavior.run import run_computation
    from repro.behavior.shapes import classify_activity_shape

    domain = info(args.algorithm).domain
    spec = _spec_for(args, domain)
    options: dict = {"work_model": args.work_model}
    if args.max_iterations is not None:
        options["max_iterations"] = args.max_iterations
    if args.health_policy is not None:
        options["health_policy"] = args.health_policy
    if args.inject_fault is not None:
        options["inject_fault"] = args.inject_fault
    obs_path = _configure_cli_obs(args)
    try:
        trace = run_computation(args.algorithm, spec, options=options)
    finally:
        _close_cli_obs(obs_path)
    print(trace.summary())
    m = compute_metrics(trace)
    print(f"  behavior: <updt={m.updt:.4g}, work={m.work:.4g}, "
          f"eread={m.eread:.4g}, msg={m.msg:.4g}>")
    print(f"  activity shape: {classify_activity_shape(trace).value}")
    enforced = "yes" if trace.meta.get("timeout_enforced") else "no"
    print(f"  harness: graph_source={trace.meta.get('graph_source', '?')} "
          f"timeout_enforced={enforced}")
    if obs_path is not None:
        print(f"  telemetry: {obs_path} "
              f"(inspect with `repro stats {obs_path}`)")
    if args.json:
        trace.to_json(args.json)
        print(f"  trace written to {args.json}")
    return 0


def _cmd_characterize(args) -> int:
    from repro.algorithms.registry import info
    from repro.behavior.metrics import METRIC_NAMES, compute_metrics
    from repro.behavior.run import run_computation
    from repro.experiments.config import GraphSpec
    from repro.experiments.reporting import format_table

    domain = info(args.algorithm).domain
    if domain not in ("ga", "clustering", "cf"):
        print(f"error: {args.algorithm} has fixed graph structure "
              f"(domain {domain}); 'characterize' sweeps (nedges, α)",
              file=sys.stderr)
        return 2
    rows = []
    for nedges in args.sizes:
        for alpha in args.alphas:
            spec = GraphSpec.for_domain(domain, nedges=nedges, alpha=alpha,
                                        seed=args.seed)
            trace = run_computation(args.algorithm, spec)
            m = compute_metrics(trace)
            rows.append((f"{nedges:g}", alpha, trace.n_iterations,
                         *(m[name] for name in METRIC_NAMES)))
    print(format_table(["nedges", "α", "iters", *METRIC_NAMES], rows,
                       title=f"{args.algorithm}: behavior across structures"))
    return 0


#: Exit code for a build that completed but recorded unexpected
#: (non-memory) failures — distinct from argparse/usage errors.
EXIT_UNEXPECTED_FAILURES = 3
#: Exit code for a build stopped by SIGINT (128 + SIGINT, the shell
#: convention for death-by-signal).
EXIT_INTERRUPTED = 130


class _SigintGovernor:
    """Two-stage Ctrl-C for long builds.

    The first SIGINT only *requests* a stop: the build finishes its
    in-flight cells (which land in the store) and comes back marked
    interrupted. A second SIGINT restores
    the default handler behavior by re-raising ``KeyboardInterrupt`` —
    the user insists, so abort now.
    """

    def __init__(self) -> None:
        import threading

        self._stop = threading.Event()
        self._previous = None

    def __enter__(self) -> "_SigintGovernor":
        import signal

        def handler(signum, frame):
            if self._stop.is_set():
                raise KeyboardInterrupt
            self._stop.set()
            print("\ninterrupt: no new cells will start; waiting for "
                  "in-flight cells to finish (^C again to abort now)",
                  file=sys.stderr)

        self._previous = signal.signal(signal.SIGINT, handler)
        return self

    def __exit__(self, *exc_info) -> None:
        import signal

        signal.signal(signal.SIGINT, self._previous)

    @property
    def stop_requested(self):
        return self._stop.is_set


def _cmd_corpus(args) -> int:
    from repro.experiments.config import BuildOptions
    from repro.experiments.corpus import build_corpus
    from repro.experiments.failures import RETRYABLE_KINDS

    options = BuildOptions(
        timeout_s=args.timeout, retries=args.retries, resume=args.resume,
        health_policy=args.health_policy,
        lease_timeout_s=args.lease_timeout,
        max_lease_expiries=args.max_lease_expiries)
    progress = (lambda line: print(f"  {line}")) if args.progress else None
    with _SigintGovernor() as governor:
        corpus = build_corpus(args.profile, use_cache=not args.no_cache,
                              progress=progress, workers=args.workers,
                              options=options,
                              stop_requested=governor.stop_requested,
                              distributed=args.distributed,
                              obs=args.obs, obs_dir=args.obs_dir)
    print(corpus.summary())
    print(f"  executed {corpus.n_executed}, cached {corpus.n_cached}")
    if corpus.interrupted:
        print("interrupted: completed cells are cached; rerun the same "
              "command to resume the build where it stopped",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    unexpected = corpus.unexpected_failures
    if unexpected:
        kinds = sorted({f.failure.kind for f in unexpected})
        if any(k in RETRYABLE_KINDS for k in kinds):
            hint = "rerun with --resume to re-execute them"
        else:
            hint = ("deterministic kinds are not retried; rerun with "
                    "--no-cache after fixing the cause")
        print(f"error: {len(unexpected)} run(s) failed unexpectedly "
              f"(kinds: {kinds}); {hint}", file=sys.stderr)
        return EXIT_UNEXPECTED_FAILURES
    return 0


def _cmd_design(args) -> int:
    from repro.behavior.space import BehaviorSpace
    from repro.ensemble.constrained import limit_to_algorithms
    from repro.ensemble.metrics import coverage, spread
    from repro.ensemble.search import best_ensemble
    from repro.experiments.corpus import build_corpus

    corpus = build_corpus(args.profile)
    vectors = corpus.vectors(scheme=args.scheme)
    if args.algorithms:
        vectors = limit_to_algorithms(vectors, args.algorithms)
    samples = BehaviorSpace().sample(args.samples, seed=0)
    result = best_ensemble(vectors, args.size, args.metric,
                           samples=samples[:4000])
    print(f"best {args.metric} ensemble of size {args.size} "
          f"(scheme={args.scheme}):")
    for member in result.ensemble:
        alg, nedges, alpha = member.tag
        print(f"  <{alg}, nedges={nedges:g}, α={alpha}>")
    print(f"spread   = {spread(result.ensemble):.4f}")
    print(f"coverage = {coverage(result.ensemble, samples=samples):.4f}")
    return 0


def _cmd_ensemble(args) -> int:
    import time

    from repro.behavior.space import BehaviorSpace
    from repro.ensemble.budgets import REPORT_SAMPLES
    from repro.ensemble.metrics import coverage, spread
    from repro.ensemble.search import best_ensemble_curve
    from repro.experiments.corpus import build_corpus
    from repro.experiments.reporting import format_table

    corpus = build_corpus(args.profile)
    vectors = corpus.vectors(scheme=args.scheme)
    kwargs: dict = dict(beam_width=args.beam_width,
                        strategy=args.strategy)
    if args.samples is not None:
        kwargs["n_samples"] = args.samples
    obs_path = _configure_cli_obs(args)
    try:
        start = time.perf_counter()
        curve = best_ensemble_curve(vectors, args.sizes, args.metric,
                                    **kwargs)
        wall = time.perf_counter() - start
    finally:
        _close_cli_obs(obs_path)
    # Search runs on the search budget; the table re-scores every
    # ensemble at the reporting budget so quoted numbers are stable.
    report = BehaviorSpace().sample(REPORT_SAMPLES, seed=0)
    rows = []
    for size in sorted(curve):
        res = curve[size]
        rows.append((size, f"{res.score:.6f}",
                     f"{spread(res.ensemble):.6f}",
                     f"{coverage(res.ensemble, samples=report):.6f}"))
    strategy = args.strategy or "beam"
    print(format_table(
        ["size", f"search {args.metric}", "spread", "coverage"],
        rows,
        title=f"Best {args.metric} ensembles (pool={len(vectors)}, "
              f"scheme={args.scheme}, strategy={strategy})"))
    largest = curve[max(curve)]
    print(f"members of size-{largest.ensemble.size} ensemble:")
    for member in largest.ensemble:
        alg, nedges, alpha = member.tag
        print(f"  <{alg}, nedges={nedges:g}, α={alpha}>")
    print(f"search wall: {wall:.3f}s over {len(args.sizes)} sizes")
    if obs_path is not None:
        print(f"telemetry: {obs_path} "
              f"(inspect with `repro stats {obs_path}`)")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    root = Path(args.artifacts)
    if not root.is_dir():
        print(f"error: no artifact directory {root} — run "
              f"'pytest benchmarks/ --benchmark-only' first",
              file=sys.stderr)
        return 1
    sections = []
    for path in sorted(root.glob("*.txt")):
        body = path.read_text(encoding="utf-8").rstrip()
        sections.append(f"## {path.stem}\n\n```\n{body}\n```")
    metadata = _run_metadata_section(args.store)
    if metadata:
        sections.append(metadata)
    document = ("# Regenerated paper artifacts\n\n"
                + "\n\n".join(sections) + "\n")
    if args.out:
        Path(args.out).write_text(document, encoding="utf-8")
        print(f"wrote {args.out} ({len(sections)} artifacts)")
    else:
        print(document)
    return 0


def _run_metadata_section(store_dir: "str | None") -> "str | None":
    """Markdown section summarizing how each cached run executed.

    Surfaces the harness facts behavior analysis ignores —
    ``graph_source`` (shm / cache / generated) and
    ``timeout_enforced`` (SIGALRM vs cooperative deadline) — so a
    report reader can judge whether runs shared inputs and whether the
    wall-clock limit was actually armed.
    """
    from repro.experiments.reporting import format_table
    from repro.experiments.results import ResultStore

    rows = []
    for trace in ResultStore(store_dir).iter_traces():
        enforced = "yes" if trace.meta.get("timeout_enforced") else "no"
        rows.append((trace.label, trace.engine, trace.n_iterations,
                     str(trace.meta.get("graph_source", "-")), enforced))
    if not rows:
        return None
    sources = sorted({row[3] for row in rows})
    table = format_table(
        ["run", "engine", "iters", "graph source", "timeout enforced"],
        sorted(rows),
        title=f"Run metadata ({len(rows)} cached traces; "
              f"graph sources: {', '.join(sources)})")
    return f"## run-metadata\n\n```\n{table}\n```"


def _cmd_stats(args) -> int:
    import json as _json

    from repro.obs.stats import render_stats, stats_payload

    if args.format == "json":
        print(_json.dumps(stats_payload(args.run_dir, node=args.node),
                          indent=2, sort_keys=True, default=str))
    else:
        print(render_stats(args.run_dir, node=args.node))
    return 0


def _trace_events(run_dir):
    from repro.obs.events import read_all_events
    from repro.obs.stats import resolve_run_dir

    return read_all_events(resolve_run_dir(run_dir))


def _cmd_trace(args) -> int:
    from repro.obs.tracing import build_span_tree, render_trace

    events = _trace_events(args.run_dir)
    print(render_trace(events, trace_id=args.trace_id, cell=args.cell,
                       max_depth=args.max_depth))
    if args.check:
        tree = build_span_tree(events, args.trace_id)
        if not tree.nodes or tree.orphans:
            return 1
    return 0


def _cmd_critical_path(args) -> int:
    import json as _json

    from repro.obs.critpath import critical_path, render_critical_path

    events = _trace_events(args.run_dir)
    if args.format == "json":
        print(_json.dumps(critical_path(events), indent=2,
                          sort_keys=True, default=str))
    else:
        print(render_critical_path(events, max_chain=args.max_chain))
    return 0


def _cmd_bench(args) -> int:
    import json as _json

    from repro.obs.benchdiff import compare_artifacts, render_bench_compare

    report = compare_artifacts(
        args.baseline, args.candidate,
        warn_pct=args.warn_pct, fail_pct=args.fail_pct,
        strict=args.strict,
        artifacts=tuple(args.artifact) if args.artifact else None)
    if args.format == "json":
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_bench_compare(report))
    return 1 if report["failed"] else 0


def _cmd_tail(args) -> int:
    import json as _json

    from repro.obs.events import follow_events, read_all_events
    from repro.obs.stats import format_event, resolve_run_dir

    obs_dir = resolve_run_dir(args.run_dir)
    render = ((lambda e: _json.dumps(e, sort_keys=True)) if args.raw
              else format_event)
    events = read_all_events(obs_dir)
    if args.node is not None:
        events = [e for e in events if e.get("node") == args.node]
    for event in events[-args.lines:]:
        print(render(event))
    if args.follow:
        try:
            for event in follow_events(obs_dir, duration_s=args.duration):
                if args.node is not None and event.get("node") != args.node:
                    continue
                print(render(event), flush=True)
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_node(args) -> int:
    from repro.experiments.distqueue import DistributedQueue
    from repro.experiments.nodeagent import NodeAgent

    return NodeAgent.serve(
        DistributedQueue(args.queue_dir), workers=args.workers,
        node=args.node_id, manifest_wait_s=args.manifest_wait)


def _cmd_characterize_corpus(args) -> int:
    from repro.experiments.characterization import characterize_corpus
    from repro.experiments.corpus import build_corpus

    corpus = build_corpus(args.profile, workers=args.workers)
    print(characterize_corpus(corpus).report())
    return 0


_COMMANDS = {
    "algorithms": _cmd_algorithms,
    "run": _cmd_run,
    "characterize": _cmd_characterize,
    "characterize-corpus": _cmd_characterize_corpus,
    "corpus": _cmd_corpus,
    "design": _cmd_design,
    "ensemble": _cmd_ensemble,
    "report": _cmd_report,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "critical-path": _cmd_critical_path,
    "bench": _cmd_bench,
    "tail": _cmd_tail,
    "node": _cmd_node,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Report commands (trace, critical-path, stats, tail) are made
        # to be piped; a closed reader (`| head`) is not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
