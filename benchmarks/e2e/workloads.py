"""The six workloads of the end-to-end benchmark.

Each workload is a ``setup`` that generates its inputs and a ``run``
that performs one measured pass and returns what the pass produced, so
the checks can verify it. ``run`` times the program from outside, by
wrapping calls into public functions of ``repro`` in spans.

Every workload comes in three sizes. ``full`` is the pass the ledger
times, 5 to 20 s each. ``short`` is the same pass over a slice of the
same inputs, 1 to 3.5 s, so that a time-boxed ``--workload`` run repeats
it often enough for a median that holds still on a shared host; each
``short`` size below says what keeps it in the regime the workload is
there for. ``check`` is the self-test's, as small as still reaches
every code path.

With tracing off the pass calls the program's own top-level loop
(``build_corpus``) and records only the stage spans. With tracing on,
the inline workloads replace that loop with a benchmark-owned loop over
the same plan that wraps every public call of a cell in a span; the
fabric and distributed-queue workloads, which cannot be driven cell by
cell from outside, keep the one span around ``build_corpus`` and add
the split the program itself reports.

Inputs are pinned: every graph, pool and sample set comes from
``INPUT_SEED``, the generator seed of the shipped profiles, whatever
``--seed`` the benchmark is given. Across generator seeds the smoke
build's work moves by about 12 % (k-means iteration counts), one seed
in five trips the k-means oscillation watchdog, and the lazy-greedy
search of ``design-wide`` takes between 2.3 and 5.0 s: input noise that
would bury any change the bounds are there to catch, and that no
reference could check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.behavior.metrics import compute_metrics
from repro.behavior.run import run_computation
from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.behavior.validate import validate_trace
from repro.ensemble.metrics import coverage
from repro.ensemble.search import (
    SearchResult,
    best_ensemble,
    best_ensemble_curve,
    top_k_ensembles,
)
from repro.experiments.config import (
    ExperimentMatrix,
    GraphSpec,
    PlannedRun,
    Profile,
    get_profile,
)
from repro.experiments.corpus import (
    BehaviorCorpus,
    CorpusRun,
    build_corpus,
    execute_planned_run,
    run_cache_key,
)
from repro.experiments.failures import RunFailure
from repro.experiments.graph_cache import default_cache, freeze_inputs
from repro.experiments.results import ResultStore
from repro.graph import shm

from spans import Recorder

#: Generator seed of every input: the one the shipped profiles use.
INPUT_SEED = 7
WORKERS = 2


@dataclass
class Context:
    """What one pass is given."""

    #: "full", "short" or "check".
    size: str
    traced: bool
    obs: str
    #: Fresh directory for the pass's store, queue and telemetry.
    work: Path


@dataclass
class Outputs:
    """What one pass produced, for the checks and the counters."""

    profile: "Profile | None" = None
    plan: "list[PlannedRun]" = field(default_factory=list)
    corpus: "BehaviorCorpus | None" = None
    #: Where the pass's cells were saved to or loaded from.
    store: "ResultStore | None" = None
    #: Times the plan was walked (``warm-redesign`` rounds).
    rounds: int = 1
    vectors: "list[BehaviorVector] | None" = None
    #: Search name -> results, in the order they were asked for.
    searches: "dict[str, list[SearchResult]]" = field(default_factory=dict)
    #: Search name -> (pool, samples) the search ran on.
    search_inputs: "dict[str, tuple]" = field(default_factory=dict)
    #: Re-scored coverage of the searched ensembles, search order.
    rescored: "list[float]" = field(default_factory=list)
    #: Values the spans cannot give, by metric name.
    layer: "dict[str, float]" = field(default_factory=dict)
    #: False when rounds that must agree found different ensembles.
    stable: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    setup: "Callable[[Context], dict[str, Any]]"
    run: "Callable[[Context, dict[str, Any], Recorder], Outputs]"
    #: Traced reps only, after the pass: calls the pass makes behind
    #: ``build_corpus``, repeated where they can be timed.
    probe: "Callable[[Recorder, Outputs], dict[str, float]] | None" = None
    #: Processes the pass computes in side by side.
    processes: int = 1


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def smoke_profile(ctx: Context) -> Profile:
    profile = get_profile("smoke")
    if ctx.size != "full":
        # One exponent of the five: every algorithm at every size, and
        # the by-design diameter failure, in 44 cells.
        profile = dataclasses.replace(profile, alphas=(2.5,))
    if ctx.size == "check":
        # Smallest and largest size only: 22 cells.
        profile = dataclasses.replace(
            profile,
            ga_sizes=(profile.ga_sizes[0], profile.ga_sizes[-1]),
            cf_sizes=(profile.cf_sizes[0], profile.cf_sizes[-1]))
    return profile


def smoke_plan(profile: Profile) -> "list[PlannedRun]":
    # build_corpus walks its plan graph-major; the traced loop must too.
    return sorted(ExperimentMatrix(profile).corpus_runs(),
                  key=lambda planned: planned.spec.cache_key())


#: scale-slice: algorithm -> (domain, edges). One exponent, the paper
#: profile's options, every algorithm at the largest size that keeps
#: the pass under half a minute.
#: ``short`` divides every size by 8: at 125 000 edges and 1 ms an
#: iteration, per-edge cost still outweighs per-iteration overhead
#: tenfold, and the generators are still a third of the pass.
SLICE_ALPHA = 2.5
SLICE_SHRINK = {"full": 1, "short": 8, "check": 100}
SLICE_CELLS = (
    ("pagerank", "ga", 10**6), ("sssp", "ga", 10**6),
    ("cc", "ga", 10**5), ("kcore", "ga", 10**5), ("triangle", "ga", 10**5),
    ("diameter", "ga", 10**4), ("kmeans", "clustering", 10**4),
    ("nmf", "cf", 10**5), ("sgd", "cf", 10**5),
    ("als", "cf", 10**4), ("svd", "cf", 10**4),
)


def slice_plan(ctx: Context) -> "list[PlannedRun]":
    shrink = SLICE_SHRINK[ctx.size]
    return [PlannedRun(alg, GraphSpec.for_domain(
                domain, nedges=max(edges // shrink, 1000),
                alpha=SLICE_ALPHA, seed=INPUT_SEED))
            for alg, domain, edges in SLICE_CELLS]


# ----------------------------------------------------------------------
# The cell stage
# ----------------------------------------------------------------------
def traced_cells(rec: Recorder, plan: "list[PlannedRun]", profile: Profile,
                 store: ResultStore) -> BehaviorCorpus:
    """One cold cell per planned run, each public call in its own span:
    what ``execute_planned_run`` does, minus its retry, isolation and
    telemetry plumbing."""
    cache = default_cache()
    corpus = BehaviorCorpus(profile=profile)
    options = {"memory_budget_bytes": profile.memory_budget_bytes}
    for planned in plan:
        alg, spec = planned.algorithm, planned.spec
        key = run_cache_key(planned, profile)
        with rec.span("cell", key=key):
            with rec.span("results.load"):
                store.load(key)
                store.load_failure(key)
            with rec.span("graph_cache.materialize"):
                problem = cache.get(spec.cache_key())
            if problem is None:
                with rec.span("generators.generate", edges=spec.nedges):
                    problem = spec.generate()
                with rec.span("graph_cache.materialize"):
                    cache.put(spec.cache_key(), freeze_inputs(problem))
            params = ({"n_hashes": profile.ad_n_hashes}
                      if alg == "diameter" else {})
            try:
                with rec.span("engine.run", algorithm=alg):
                    trace = run_computation(alg, problem, params=params,
                                            options=options)
                with rec.span("behavior.validate"):
                    validate_trace(trace)
            except Exception as exc:  # the program's cell boundary
                failure = RunFailure.from_exception(exc)
                with rec.span("results.save"):
                    store.save_failure(key, failure)
                corpus.failures.append(
                    CorpusRun(alg, spec, None, None, failure=failure))
                continue
            with rec.span("results.save"):
                store.save(key, trace)
            with rec.span("behavior.metrics"):
                metrics = compute_metrics(trace)
            corpus.runs.append(CorpusRun(alg, spec, trace, metrics))
    return corpus


def shm_probe(rec: Recorder, out: Outputs) -> "dict[str, float]":
    """Publish and attach every distinct graph of the plan once, the two
    calls the fabric makes per graph behind ``build_corpus``."""
    specs = {p.spec.cache_key(): p.spec for p in out.plan}
    plane = shm.GraphPlane()
    nbytes = 0
    try:
        for key, spec in specs.items():
            problem = spec.generate()
            with rec.span("graph.shm.publish"):
                manifest = plane.publish(key, problem)
            with rec.span("graph.shm.attach"):
                shm.attach(manifest)
            nbytes += sum(a.nbytes for a in manifest.arrays)
    finally:
        plane.close()
    return {"graph.shm.bytes": float(nbytes)}


# ----------------------------------------------------------------------
# smoke-inline / smoke-fabric / smoke-distqueue
# ----------------------------------------------------------------------
def smoke_setup(ctx: Context) -> "dict[str, Any]":
    profile = smoke_profile(ctx)
    # The CLI's own sample seed: `repro design` draws with seed=0.
    check = ctx.size == "check"
    samples = BehaviorSpace().sample(2_000 if check else 20_000, seed=0)
    return {"profile": profile, "plan": smoke_plan(profile),
            "report_samples": samples,
            "search_samples": samples[:500 if check else 4_000]}


def smoke_inline(ctx: Context, state: dict, rec: Recorder) -> Outputs:
    profile, plan = state["profile"], state["plan"]
    store = ResultStore(ctx.work / "store")
    out = Outputs(profile=profile, plan=plan, store=store)
    with rec.span("build"):
        if ctx.traced:
            out.corpus = traced_cells(rec, plan, profile, store)
        else:
            with rec.span("corpus.build_corpus"):
                out.corpus = build_corpus(profile, store=store, workers=1,
                                          obs=ctx.obs)
    # ``short`` searches its 43 vectors exactly as ``full`` its 215.
    check = ctx.size == "check"
    sizes = (2, 5, 10) if check else (2, 5, 10, 15, 20)
    cover_sizes = (5,) if check else (5, 10, 20)
    top_size, top_k = (4, 20) if check else (8, 100)
    search, report = state["search_samples"], state["report_samples"]
    with rec.span("design"):
        with rec.span("behavior.normalize"):
            out.vectors = vectors = out.corpus.vectors(scheme="max")
        with rec.span("ensemble.spread_curve"):
            curve = best_ensemble_curve(vectors, sizes, "spread")
        with rec.span("ensemble.coverage_beam"):
            cover = best_ensemble_curve(vectors, cover_sizes, "coverage",
                                        samples=search)
        with rec.span("ensemble.topk"):
            top = top_k_ensembles(vectors, top_size, "spread", k=top_k)
        out.searches = {"spread_curve": list(curve.values()),
                        "coverage_beam": list(cover.values()),
                        "topk": top}
        with rec.span("ensemble.rescore"):
            out.rescored = [
                coverage(result.ensemble, samples=report)
                for name in ("spread_curve", "coverage_beam")
                for result in out.searches[name]]
    out.search_inputs = {"spread_curve": (vectors, None),
                         "coverage_beam": (vectors, search),
                         "topk": (vectors, None)}
    return out


def _parallel_build(ctx: Context, state: dict, rec: Recorder, layer: str,
                    **how: Any) -> Outputs:
    """``build_corpus`` over two workers: one span, plus the split the
    program reports about itself (it cannot be timed from outside)."""
    profile, plan = state["profile"], state["plan"]
    store = ResultStore(ctx.work / "store")
    out = Outputs(profile=profile, plan=plan, store=store)
    with rec.span("build"), rec.span("corpus.build_corpus"):
        out.corpus = build_corpus(profile, store=store, workers=WORKERS,
                                  obs=ctx.obs, obs_dir=ctx.work / "obs",
                                  **how)
    timing = out.corpus.timing_decomposition() or {}
    out.layer = {f"{layer}.reported_engine_s": timing.get("engine_s", 0.0)}
    return out


def smoke_fabric(ctx: Context, state: dict, rec: Recorder) -> Outputs:
    out = _parallel_build(ctx, state, rec, "fabric")
    out.layer["fabric.premat_s"] = out.corpus.premat_seconds
    return out


def smoke_distqueue(ctx: Context, state: dict, rec: Recorder) -> Outputs:
    return _parallel_build(ctx, state, rec, "distqueue",
                           distributed=ctx.work / "queue")


# ----------------------------------------------------------------------
# scale-slice
# ----------------------------------------------------------------------
def slice_setup(ctx: Context) -> "dict[str, Any]":
    return {"profile": get_profile("paper"), "plan": slice_plan(ctx)}


def scale_slice(ctx: Context, state: dict, rec: Recorder) -> Outputs:
    profile, plan = state["profile"], state["plan"]
    store = ResultStore(ctx.work / "store")
    out = Outputs(profile=profile, plan=plan, store=store)
    with rec.span("build"):
        if ctx.traced:
            out.corpus = traced_cells(rec, plan, profile, store)
        else:
            out.corpus = BehaviorCorpus(profile=profile)
            for planned in plan:
                with rec.span("corpus.execute_planned_run"):
                    run = execute_planned_run(planned, profile, store)
                (out.corpus.runs if run.ok
                 else out.corpus.failures).append(run)
    return out


# ----------------------------------------------------------------------
# design-wide
# ----------------------------------------------------------------------
#: design-wide: size -> (pool, ensemble sizes). ``short`` keeps the
#: pairwise distances at 72 MB, three 32 MiB tiles: still the blocked
#: regime, which ends below 2 048 vectors.
WIDE = {"full": (5_000, (4, 8, 12, 16, 20)), "short": (3_000, (4, 8, 12)),
        "check": (200, (4, 8))}


def wide_setup(ctx: Context) -> "dict[str, Any]":
    n, sizes = WIDE[ctx.size]
    pool = np.random.default_rng(INPUT_SEED).random((n, 4))
    return {"pool": [BehaviorVector(*row) for row in pool], "sizes": sizes,
            "samples": BehaviorSpace().sample(
                500 if ctx.size == "check" else 4_000, seed=0)}


def design_wide(ctx: Context, state: dict, rec: Recorder) -> Outputs:
    pool, samples, sizes = state["pool"], state["samples"], state["sizes"]
    out = Outputs()
    with rec.span("design"):
        with rec.span("ensemble.spread_curve"):
            curve = best_ensemble_curve(pool, sizes, "spread", beam_width=64)
        with rec.span("ensemble.greedy"):
            greedy = best_ensemble(pool, sizes[-1], "coverage",
                                   samples=samples, strategy="greedy")
    out.searches = {"spread_curve": list(curve.values()),
                    "greedy": [greedy]}
    out.search_inputs = {"spread_curve": (pool, None),
                         "greedy": (pool, samples)}
    return out


# ----------------------------------------------------------------------
# warm-redesign
# ----------------------------------------------------------------------
def warm_setup(ctx: Context) -> "dict[str, Any]":
    state = smoke_setup(ctx)
    state["store"] = ResultStore(ctx.work / "warm-store")
    build_corpus(state["profile"], store=state["store"], workers=WORKERS,
                 obs="off")
    return state


def warm_redesign(ctx: Context, state: dict, rec: Recorder) -> Outputs:
    profile, plan, store = state["profile"], state["plan"], state["store"]
    size = 4 if ctx.size == "check" else 8
    # 150 rounds, ten seconds: a three-second pass sits wholly inside
    # one of this machine's 10-20 s slow bursts or wholly outside.
    # ``short``: 100 rounds over its 44 cells are 1.3 s, and a run
    # takes the median of a dozen such passes.
    out = Outputs(profile=profile, plan=plan, store=store,
                  rounds={"full": 150, "short": 100, "check": 3}[ctx.size])
    found = []
    for _ in range(out.rounds):
        with rec.span("build"), rec.span("corpus.build_corpus"):
            out.corpus = build_corpus(profile, store=store, workers=1,
                                      obs="off")
        with rec.span("design"):
            with rec.span("behavior.normalize"):
                out.vectors = out.corpus.vectors(scheme="max")
            with rec.span("ensemble.spread_curve"):
                found.append(best_ensemble(out.vectors, size, "spread"))
    out.searches = {"best_spread": found[:1]}
    out.stable = all(f.indices == found[0].indices
                     and f.score == found[0].score for f in found)
    out.search_inputs = {"best_spread": (out.vectors, None)}
    return out


def warm_probe(rec: Recorder, out: Outputs) -> "dict[str, float]":
    """Load and reduce every cell of the plan once per round, the two
    calls ``build_corpus`` makes per cell on a warm store."""
    keys = [run_cache_key(p, out.profile) for p in out.plan]
    for _ in range(out.rounds):
        with rec.span("results.load"):
            loaded = [out.store.load(key) or out.store.load_failure(key)
                      for key in keys]
        with rec.span("behavior.metrics"):
            for got in loaded:
                if not isinstance(got, RunFailure):
                    compute_metrics(got)
    return {}


WORKLOADS: "dict[str, Workload]" = {w.name: w for w in (
    Workload("smoke-inline", smoke_setup, smoke_inline),
    Workload("smoke-fabric", smoke_setup, smoke_fabric, probe=shm_probe,
             processes=WORKERS),
    Workload("smoke-distqueue", smoke_setup, smoke_distqueue,
             processes=WORKERS),
    Workload("scale-slice", slice_setup, scale_slice),
    Workload("design-wide", wide_setup, design_wide),
    Workload("warm-redesign", warm_setup, warm_redesign, probe=warm_probe),
)}
