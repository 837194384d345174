"""Engine throughput micro-benchmarks (not a paper artifact).

Raw performance of the vectorized engine's hot paths, tracked so that
optimizations (or regressions) to the CSR segment kernels are visible:

- one full PageRank iteration at fixed scale (gather-heavy);
- one SSSP run (frontier churn);
- one Triangle Counting run (intersection-heavy);
- the gather kernel in isolation;
- the fused-kernel gate: the synchronous pull step (the one fused
  evaluation, DESIGN §13) in edges/sec against the callback path on
  dense PageRank and Jacobi, each against a bare-NumPy gather, and
  what the production-default health monitor adds to the faster of
  them, written to ``benchmarks/artifacts/BENCH_engine.json``
  (uploaded by CI's perf-smoke step).

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
from repro.algorithms.registry import create
from repro.behavior.run import build_engine_options, run_computation
from repro.engine.engine import PULL_ACTIVE_FRACTION, SynchronousEngine
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
    """The synchronous pull step — the one fused evaluation — against
    the callback path, a bare gather, and itself under the monitor."""
    workloads = {}

    def sync_arm(algorithm, problem, params, options, fused=True):
        """Defaults pull when the frontier is dense enough; the
        baseline runs the same program with its shape declarations
        cleared, so every iteration takes the callback path."""
        def run():
            program = create(algorithm, **params)
            return SynchronousEngine(
                build_engine_options(algorithm, options)).run(
                    program if fused else unfused(program), problem)
        return run

    def workload(problem, report, traces):
        pulled = traces["pull"]
        # "pull" is the name of what the arm did, not of an option:
        # every step's frontier must have reached the constant.
        assert all(r.active >= PULL_ACTIVE_FRACTION * problem.graph.n_vertices
                   for r in pulled.iterations)
        for name, trace in traces.items():
            _assert_identical(traces["unfused"], trace, name)
        return {
            "n_edges": problem.graph.n_edges,
            "n_iterations": pulled.n_iterations,
            "baseline": "unfused",
            "fused": "pull",
            "arms": report,
        }

    # -- PageRank: the dense-frontier workload the pull step targets. A
    # tight tolerance under a fixed iteration budget keeps the frontier
    # at (or near) the full vertex set, where pull-mode dense gathers
    # and the indicator-SpMV scatter replace the per-frontier expansion
    # entirely.
    pr_problem = powerlaw_graph(60_000, 2.2, seed=43)
    pr_params = {"tol": 1e-12}
    pr_off = {"max_iterations": 20, "health_policy": "off"}
    report, traces = _bench_arms({
        "unfused": sync_arm("pagerank", pr_problem, pr_params, pr_off,
                            fused=False),
        "pull": sync_arm("pagerank", pr_problem, pr_params, pr_off),
        "pull-strict": sync_arm("pagerank", pr_problem, pr_params,
                                {**pr_off, "health_policy": "strict"}),
    }, floor=_gather_floor(pr_problem.graph))
    workloads["pagerank/sync"] = workload(pr_problem, report, traces)
    monitor_overhead = (report["pull-strict"]["best_s"]
                        / report["pull"]["best_s"])

    # -- Jacobi: always-active (every iteration is a full-frontier
    # Σ A_ij·x_j), the purest dense-gather workload.
    ja_problem = matrix_problem(2_000, seed=3)
    ja_off = {"health_policy": "off"}
    report, traces = _bench_arms({
        "unfused": sync_arm("jacobi", ja_problem, {}, ja_off, fused=False),
        "pull": sync_arm("jacobi", ja_problem, {}, ja_off),
    }, floor=_gather_floor(ja_problem.graph))
    workloads["jacobi/sync"] = workload(ja_problem, report, traces)

    speedups = {
        name: (w["arms"][w["fused"]]["edges_per_s"]
               / w["arms"][w["baseline"]]["edges_per_s"])
        for name, w in workloads.items()
    }
    over_floor = {name: _step_over_floor(workloads[name])
                  for name in MAX_FUSED_STEP_OVER_FLOOR}
    out = {
        "rounds": ROUNDS,
        "workloads": workloads,
        "speedup": speedups,
        "max_dense_frontier_speedup": max(speedups.values()),
        "fused_step_over_floor": over_floor,
        "monitor_overhead": monitor_overhead,
    }
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")

    assert max(speedups.values()) >= MIN_DENSE_SPEEDUP, out["speedup"]
    for name, ceiling in MAX_FUSED_STEP_OVER_FLOOR.items():
        assert over_floor[name] <= ceiling, (name, over_floor)
    assert monitor_overhead <= MAX_MONITOR_OVERHEAD, monitor_overhead
