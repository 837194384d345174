"""Engine throughput micro-benchmarks (not a paper artifact).

Raw performance of the vectorized engine's hot paths, tracked so that
optimizations (or regressions) to the CSR segment kernels are visible:

- one full PageRank iteration at fixed scale (gather-heavy);
- one SSSP run (frontier churn);
- one Triangle Counting run (intersection-heavy);
- the gather kernel in isolation;
- the fused-kernel ablation: edges/sec per algorithm × engine ×
  direction mode, each synchronous fused arm against a bare-NumPy
  gather, and what the production-default health monitor adds to the
  fastest of them, written to
  ``benchmarks/artifacts/BENCH_engine.json`` (uploaded by CI's
  perf-smoke step).

Timing protocol for the ablation (the satellite bugfix this file
carries): every problem is materialized **once** before any clock
starts, every arm gets one untimed warm-up run (which also supplies the
trace for the bit-identity assertions), and the timed rounds alternate
arms so drift hits all of them equally; best-of-N per arm is reported.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro._util.segments import concat_ranges, segmented_reduce
from repro.behavior.run import run_computation
from repro.generators import matrix_problem, powerlaw_graph
from tests.conftest import unfused

SCALE = 30_000  # edges


@pytest.fixture(scope="module")
def ga_problem():
    return powerlaw_graph(SCALE, 2.5, seed=41)


def test_throughput_pagerank(ga_problem, benchmark):
    trace = benchmark(lambda: run_computation("pagerank", ga_problem))
    total_reads = sum(r.edge_reads for r in trace.iterations)
    benchmark.extra_info["edge_reads_per_run"] = total_reads
    assert trace.converged


def test_throughput_sssp(ga_problem, benchmark):
    trace = benchmark(lambda: run_computation("sssp", ga_problem))
    assert trace.converged


def test_throughput_triangle(ga_problem, benchmark):
    trace = benchmark(lambda: run_computation("triangle", ga_problem))
    assert trace.n_iterations == 3


def test_throughput_gather_kernel(ga_problem, benchmark):
    """The segment-reduce gather over the full vertex set, isolated."""
    g = ga_problem.graph
    values = np.random.default_rng(0).random(g.n_arcs)
    frontier = np.arange(g.n_vertices)

    def gather_once():
        starts = g.in_ptr[frontier]
        ends = g.in_ptr[frontier + 1]
        slots = concat_ranges(starts, ends)
        return segmented_reduce(values[slots], ends - starts, "sum")

    acc = benchmark(gather_once)
    assert acc.shape == (g.n_vertices,)
    # Sanity: total equals the plain sum over all arcs.
    np.testing.assert_allclose(acc.sum(), values.sum(), rtol=1e-9)


def test_throughput_graph_construction(benchmark):
    problem = benchmark(lambda: powerlaw_graph(SCALE, 2.5, seed=42))
    assert abs(problem.graph.n_edges - SCALE) <= 0.02 * SCALE


# ----------------------------------------------------------------------
# Fused-kernel ablation → BENCH_engine.json
# ----------------------------------------------------------------------

ARTIFACT_DIR = Path(__file__).parent / "artifacts"

ROUNDS = 3
FLOOR_PASSES = 10
#: The acceptance gate: at least one dense-frontier workload must run
#: this much faster (model edges/sec) with the fused kernels on. It was
#: 3.0 while the callback arm built its signaled set with ``np.unique``
#: and re-sliced full frontiers: two thirds of the 5.7× (PageRank) and
#: 15× (Jacobi) measured then was that, not the kernels. With the
#: callback path rid of both, the same fused arms (no slower than
#: before) measure 2.8-2.9× and 1.6-1.7×.
MIN_DENSE_SPEEDUP = 2.0
#: A ratio to the callback arm moves when the callback arm does, so each
#: synchronous fused arm also answers to a yardstick that cannot: its
#: wall per iteration in passes of ``_gather_floor`` over the same
#: graph, timed in the same rounds (a plain ns/edge ceiling fails on a
#: loaded host: 18-26 ns/edge in four consecutive runs of one commit).
#: The ceilings are the medians of six runs of the fused arms of
#: f28dcf5, the last commit whose callback arm still paid for
#: ``np.unique`` (3.09-3.47 and 4.95-5.96; 2.58-3.29 and 2.78-3.84 one
#: commit later) — a fused arm slower than it was then fails, whatever
#: its baseline does.
MAX_FUSED_STEP_OVER_FLOOR = {"pagerank/sync": 3.3, "jacobi/sync": 5.2}
#: What the default ``strict`` health monitor may cost the dense
#: PageRank pull arm (strict wall / monitor-off wall). Every other arm
#: runs with the monitor off, so this is the one number that sees it.
MAX_MONITOR_OVERHEAD = 1.25


def _records(trace):
    return [(r.iteration, r.active, r.updates, r.edge_reads, r.messages,
             r.work) for r in trace.iterations]


def _assert_identical(reference, trace, label):
    """Bit-identity across arms: same iteration-by-iteration counters,
    same stop accounting, same results — not approximately, exactly."""
    assert _records(reference) == _records(trace), label
    assert reference.stop_reason == trace.stop_reason, label
    assert reference.converged == trace.converged, label
    assert reference.result == trace.result, label


def _gather_floor(graph):
    """``FLOOR_PASSES`` pull gathers over the whole graph in bare
    NumPy: read a float64 per in-slot, sum every row in slot order —
    arithmetic no fused gather avoids, and no engine code."""
    offsets = graph.in_ptr[:-1][np.diff(graph.in_ptr) > 0]
    x = np.random.default_rng(0).random(graph.n_vertices)

    def passes():
        for _ in range(FLOOR_PASSES):
            np.add.reduceat(x[graph.in_src], offsets)
    return passes


def _bench_arms(arms, floor=None):
    """Warm up each arm once, then alternate timed rounds; best-of-N.

    ``arms`` maps name → zero-argument callable returning a RunTrace.
    Returns (report_dict, {name: warmup_trace}); ``floor``, timed in
    the same rounds, is reported as ``gather-floor`` (walls only).
    """
    traces = {name: run() for name, run in arms.items()}  # warm-up
    timed = dict(arms) if floor is None else {**arms, "gather-floor": floor}
    walls: dict[str, list[float]] = {name: [] for name in timed}
    for _ in range(ROUNDS):
        for name, run in timed.items():
            started = time.perf_counter()
            run()
            walls[name].append(time.perf_counter() - started)
    report = {name: {"wall_s": walls[name], "best_s": min(walls[name])}
              for name in timed}
    for name in arms:
        reads = sum(r.edge_reads for r in traces[name].iterations)
        report[name]["total_edge_reads"] = reads
        report[name]["edges_per_s"] = reads / report[name]["best_s"]
    return report, traces


def _step_over_floor(workload):
    """A fused iteration's wall in ``_gather_floor`` passes."""
    arms = workload["arms"]
    return ((arms[workload["fused"]]["best_s"] / workload["n_iterations"])
            / (arms["gather-floor"]["best_s"] / FLOOR_PASSES))


def test_bench_engine_kernels():
    """Fused CSR kernels and direction modes vs the callback paths."""
    workloads = {}

    # -- PageRank, synchronous engine: the dense-frontier workload the
    # direction optimization targets. A tight tolerance under a fixed
    # iteration budget keeps the frontier at (or near) the full vertex
    # set, where pull-mode dense gathers and the indicator-SpMV scatter
    # replace the per-frontier expansion entirely.
    pr_problem = powerlaw_graph(60_000, 2.2, seed=43)
    pr_params = {"tol": 1e-12}
    pr_options = {"max_iterations": 20, "health_policy": "off"}

    def pr_arm(**extra):
        return lambda: run_computation(
            "pagerank", pr_problem, params=pr_params,
            options={**pr_options, **extra})

    # "push" keeps every iteration on the callback path, whatever the
    # program declares: the synchronous baseline arm.
    report, traces = _bench_arms({
        "push-legacy": pr_arm(direction="push"),
        "auto": pr_arm(direction="auto"),
        "pull": pr_arm(direction="pull"),
        "pull-strict": pr_arm(direction="pull", health_policy="strict"),
    }, floor=_gather_floor(pr_problem.graph))
    for name, trace in traces.items():
        _assert_identical(traces["push-legacy"], trace, f"pagerank/{name}")
    workloads["pagerank/sync"] = {
        "n_edges": pr_problem.graph.n_edges,
        "n_iterations": traces["pull"].n_iterations,
        "baseline": "push-legacy",
        "fused": "pull",
        "dense_frontier": True,
        "arms": report,
    }
    monitor_overhead = (report["pull-strict"]["best_s"]
                        / report["pull"]["best_s"])

    # -- Jacobi, synchronous engine: always-active (every iteration is
    # a full-frontier Σ A_ij·x_j), the purest dense-gather workload.
    ja_problem = matrix_problem(2_000, seed=3)
    ja_options = {"health_policy": "off"}

    def ja_arm(**extra):
        return lambda: run_computation(
            "jacobi", ja_problem, options={**ja_options, **extra})

    report, traces = _bench_arms({
        "push-legacy": ja_arm(direction="push"),
        "pull": ja_arm(direction="pull"),
    }, floor=_gather_floor(ja_problem.graph))
    _assert_identical(traces["push-legacy"], traces["pull"], "jacobi/pull")
    workloads["jacobi/sync"] = {
        "n_edges": ja_problem.graph.n_edges,
        "n_iterations": traces["pull"].n_iterations,
        "baseline": "push-legacy",
        "fused": "pull",
        "dense_frontier": True,
        "arms": report,
    }

    # -- CC, edge-centric engine: the stream touches every arc every
    # iteration (dense by construction); the declared gather shape
    # replaces the ``np.minimum.at`` scatter-add with one segment
    # reduction. The legacy arms here and below run the same program
    # with its shape declarations cleared.
    from repro.algorithms.registry import create
    from repro.engine.edge_centric import EdgeCentricEngine

    ec_problem = powerlaw_graph(SCALE, 2.3, seed=61)

    def cc(fused):
        return create("cc") if fused else unfused(create("cc"))

    def ec_arm(fused):
        return lambda: EdgeCentricEngine().run(cc(fused), ec_problem)

    report, traces = _bench_arms({
        "stream-legacy": ec_arm(False),
        "stream-fused": ec_arm(True),
    })
    _assert_identical(traces["stream-legacy"], traces["stream-fused"],
                      "cc/edge-centric")
    workloads["cc/edge-centric"] = {
        "n_edges": ec_problem.graph.n_edges,
        "n_iterations": traces["stream-fused"].n_iterations,
        "baseline": "stream-legacy",
        "fused": "stream-fused",
        "dense_frontier": True,
        "arms": report,
    }

    # -- CC, graph-centric engine: threshold 0 forces every inner sweep
    # through the dense kernel.
    from repro.engine.graph_centric import (
        GraphCentricEngine,
        GraphCentricOptions,
    )

    def gc_arm(fused, **kw):
        opts = GraphCentricOptions(**kw)
        return lambda: GraphCentricEngine(opts).run(cc(fused), ec_problem)

    report, traces = _bench_arms({
        "sweep-legacy": gc_arm(False),
        "sweep-fused": gc_arm(True, direction_threshold=0.0),
    })
    _assert_identical(traces["sweep-legacy"], traces["sweep-fused"],
                      "cc/graph-centric")
    workloads["cc/graph-centric"] = {
        "n_edges": ec_problem.graph.n_edges,
        "n_iterations": traces["sweep-fused"].n_iterations,
        "baseline": "sweep-legacy",
        "fused": "sweep-fused",
        # Partition-local frontiers are sparse slices of |V|; the dense
        # kernel is forced here for coverage, not for speed.
        "dense_frontier": False,
        "arms": report,
    }

    speedups = {
        name: (w["arms"][w["fused"]]["edges_per_s"]
               / w["arms"][w["baseline"]]["edges_per_s"])
        for name, w in workloads.items()
    }
    dense = {n: s for n, s in speedups.items()
             if workloads[n]["dense_frontier"]}
    over_floor = {name: _step_over_floor(workloads[name])
                  for name in MAX_FUSED_STEP_OVER_FLOOR}
    out = {
        "rounds": ROUNDS,
        "workloads": workloads,
        "speedup": speedups,
        "max_dense_frontier_speedup": max(dense.values()),
        "fused_step_over_floor": over_floor,
        "monitor_overhead": monitor_overhead,
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")

    assert max(dense.values()) >= MIN_DENSE_SPEEDUP, out["speedup"]
    for name, ceiling in MAX_FUSED_STEP_OVER_FLOOR.items():
        assert over_floor[name] <= ceiling, (name, over_floor)
    assert monitor_overhead <= MAX_MONITOR_OVERHEAD, monitor_overhead
