"""Fused CSR kernels and direction optimization (DESIGN §13).

The contract under test: the fused gather/scatter kernels and the
push/pull decision are *pure implementation choices* — every arm (the
callback path a program takes with its declarations cleared, pull on
every step, the production switch, a tighter switch, the reference
engine, and on the other three engines declared vs cleared, which
holds by construction: they never evaluate a declaration) must produce
bit-identical traces: same iteration counts, same WORK units, same
per-iteration counters, and literally the same frontier arrays, on
power-law, grid, and uniform graphs alike.
"""

import numpy as np
import pytest

from repro.algorithms.registry import create
from repro.engine.async_engine import AsynchronousEngine
from repro.engine.edge_centric import EdgeCentricEngine
from repro.engine.engine import (
    PULL_ACTIVE_FRACTION,
    EngineOptions,
    SynchronousEngine,
)
from repro.engine.graph_centric import GraphCentricEngine, GraphCentricOptions
from repro._util.segments import concat_ranges
from repro.engine.context import Context
from repro.engine.kernels import Kernels, _Side, reduce_block
from repro.generators import (
    erdos_renyi_graph,
    matrix_problem,
    powerlaw_graph,
    regular_graph,
)
from repro.generators.problem import ProblemInstance
from repro.graph.csr import Graph
from tests.conftest import pull_from, unfused
from tests.engine_oracle import ReferenceEngine, verify_fused


def lattice_problem(side=18):
    """An undirected 2-D grid lattice (the "grid" topology family)."""
    vid = np.arange(side * side).reshape(side, side)
    src = np.concatenate([vid[:, :-1].ravel(), vid[:-1, :].ravel()])
    dst = np.concatenate([vid[:, 1:].ravel(), vid[1:, :].ravel()])
    return ProblemInstance(
        graph=Graph.from_edges(side * side, src, dst, directed=False),
        domain="ga",
        params={"family": "grid", "side": side},
    )


GRAPHS = {
    "powerlaw": lambda: powerlaw_graph(2_000, 2.3, seed=11),
    "uniform": lambda: erdos_renyi_graph(2_000, seed=12),
    "regular": lambda: regular_graph(400, 6, seed=13),
    "grid": lambda: lattice_problem(),
}

ALGORITHMS = ("pagerank", "cc", "sssp", "kcore", "kmeans")


def with_points(problem, seed=0):
    """``problem`` as a clustering input: one 2-D point per vertex."""
    points = np.random.default_rng(seed).normal(
        size=(problem.graph.n_vertices, 2))
    return ProblemInstance(graph=problem.graph, domain="clustering",
                           inputs={"points": points},
                           params=dict(problem.params))


#: The active fraction a synchronous arm pulls from: on every step, at
#: the production switch, at a tighter one.
PULL_FROM = {"pull": 0.0, "auto": PULL_ACTIVE_FRACTION, "auto-tight": 0.05}

#: Synchronous arms. "push" is the base: the callback path on every
#: iteration — the program with its declarations cleared. "reference"
#: is the vertex-at-a-time oracle engine.
ARMS = ("push", *PULL_FROM, "reference")


#: One path for every program on the other engines: declared shapes
#: must not matter.
SHAPE_ENGINES = {
    "edge-centric": EdgeCentricEngine,
    "graph-centric": GraphCentricEngine,
    "asynchronous": AsynchronousEngine,
}


def run_arm(algorithm, problem, arm, *, program=None, engine=None, **extra):
    """One run; returns (trace, frontier list, final state arrays)."""
    program = program or create(algorithm)
    if arm == "push":
        program = unfused(program)
    frontiers = []
    inner_apply = program.apply

    def recording_apply(ctx, vids, acc):
        frontiers.append(np.asarray(vids).copy())
        return inner_apply(ctx, vids, acc)

    program.apply = recording_apply
    if engine is None:
        engine_class = (ReferenceEngine if arm == "reference"
                        else SynchronousEngine)
        engine = engine_class(EngineOptions(**extra))
    with pull_from(PULL_FROM.get(arm, PULL_ACTIVE_FRACTION)):
        trace = engine.run(program, problem)
    state = {name: arr for name, arr in vars(program).items()
             if isinstance(arr, np.ndarray)}
    return trace, frontiers, state


def assert_equivalent(base, other, label, frontiers=True):
    trace_a, fronts_a, state_a = base
    trace_b, fronts_b, state_b = other
    assert [(r.iteration, r.active, r.updates, r.edge_reads, r.messages,
             r.work) for r in trace_a.iterations] == \
           [(r.iteration, r.active, r.updates, r.edge_reads, r.messages,
             r.work) for r in trace_b.iterations], label
    assert trace_a.stop_reason == trace_b.stop_reason, label
    assert trace_a.converged == trace_b.converged, label
    if frontiers:
        assert len(fronts_a) == len(fronts_b), label
        for i, (fa, fb) in enumerate(zip(fronts_a, fronts_b)):
            np.testing.assert_array_equal(fa, fb,
                                          err_msg=f"{label} frontier {i}")
    assert state_a.keys() == state_b.keys(), label
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name],
                                      err_msg=f"{label} state {name}")


@pytest.mark.parametrize(
    "algorithm,family,engine",
    [pytest.param(a, f, None, id=f"{a}-{f}")
     for f in sorted(GRAPHS) for a in ALGORITHMS]
    + [pytest.param(a, f, e, id=f"{a}-{f}-{e}")
       for f in sorted(GRAPHS) for a in ("cc", "sssp")
       for e in SHAPE_ENGINES])
def test_direction_arms_bit_identical(algorithm, family, engine,
                                     monkeypatch):
    """Every fused/direction arm reproduces the callback run exactly —
    same iteration counters, same frontier sequence, same final state.
    k-means runs on the family's graph with points, and under the
    verifying kernels: every count-shape pull step is cross-checked
    against the one-hot callback as it runs."""
    problem = GRAPHS[family]()
    if algorithm == "kmeans":
        problem = with_points(problem)
        verifying = verify_fused(monkeypatch)
    if engine is not None:
        build = SHAPE_ENGINES[engine]
        base = run_arm(algorithm, problem, "push", engine=build())
        assert sum(r.messages for r in base[0].iterations) > 0
        assert_equivalent(base,
                          run_arm(algorithm, problem, None, engine=build()),
                          f"{algorithm}/{family}/{engine}")
        return
    base = run_arm(algorithm, problem, "push")
    assert base[0].n_iterations >= 2  # a trivial run proves nothing
    for arm in ARMS:
        if arm == "push":
            continue
        # The reference engine applies vertex-at-a-time, so its
        # recorded apply granularity differs; traces and state match.
        assert_equivalent(base, run_arm(algorithm, problem, arm),
                          f"{algorithm}/{family}/{arm}",
                          frontiers=arm != "reference")
    if algorithm == "kmeans":
        # Always fully active: every step of the three pulling arms
        # pulls, and each pull is checked twice (every row, frontier).
        assert verifying.checks == 3 * 2 * base[0].n_iterations


def test_weighted_sssp_and_jacobi_arms():
    """The *_edge gather shapes: dist+w (sssp) and A_ij·x_j (jacobi)."""
    weighted = powerlaw_graph(2_000, 2.3, seed=17, with_weights=True)
    base = run_arm("sssp", weighted, "push")
    for arm in ("pull", "auto"):
        assert_equivalent(base, run_arm("sssp", weighted, arm),
                          f"sssp-weighted/{arm}")

    system = matrix_problem(120, seed=5)
    base = run_arm("jacobi", system, "push")
    for arm in ("pull", "auto"):
        assert_equivalent(base, run_arm("jacobi", system, arm),
                          f"jacobi/{arm}")


def test_runtime_verification_hook(monkeypatch):
    """The verifying kernels cross-check every fused gather and scatter
    against the callback path in-line (and pass) — and find a fused
    evaluation on the synchronous engine only."""
    verifying = verify_fused(monkeypatch)
    problem = powerlaw_graph(1_000, 2.4, seed=23)
    for algorithm in ("pagerank", "kcore"):
        trace, _, _ = run_arm(algorithm, problem, "pull")
        assert trace.converged
        # PageRank fuses both phases, K-Core its gather: at least one
        # cross-check per iteration, or the hook is not installed.
        assert verifying.checks >= trace.n_iterations
    pulled = verifying.checks
    # The other engines never read a declaration, so even a wrong one
    # (``MisdeclaredCC`` below) changes nothing and there is nothing
    # for the wrapper to check.
    for build in SHAPE_ENGINES.values():
        declared, wrong = create("cc"), MisdeclaredCC()
        assert build().run(declared, problem).converged
        assert build().run(wrong, problem).converged
        np.testing.assert_array_equal(wrong.component, declared.component)
    assert verifying.checks == pulled


class MisdeclaredCC(type(create("cc"))):
    """CC whose ``gather_source`` is not what ``gather_edge`` reads."""

    def gather_source(self, ctx):
        return super().gather_source(ctx) + 1.0


class MisdeclaredKMeans(type(create("kmeans"))):
    """k-means whose count-shape labels are not the ones
    ``gather_edge`` votes for."""

    def gather_source(self, ctx):
        return (super().gather_source(ctx) + 1) % self.k


@pytest.mark.parametrize("engine", [SynchronousEngine],
                         ids=["synchronous"])
def test_verifying_kernels_fail_a_misdeclared_gather_shape(
        monkeypatch, engine):
    """The oracle wrapper bites: a declared shape whose source vector
    disagrees with the callback runs unnoticed in production and fails
    under the wrapper, on the first fused evaluation — on the one
    engine that has any."""
    problem = powerlaw_graph(400, 2.5, seed=3)
    points = powerlaw_graph(400, 2.5, seed=3, with_points=True)
    cases = ((MisdeclaredCC, problem), (MisdeclaredKMeans, points))
    with pull_from(0.0):
        for program, graph in cases:  # production cannot tell
            engine().run(program(), graph)
        verify_fused(monkeypatch)
        for program, graph in cases:
            with pytest.raises(AssertionError,
                               match="diverged from the callback"):
                engine().run(program(), graph)


def test_build_rejects_unfusable_programs():
    problem = powerlaw_graph(500, 2.5, seed=29)
    graph = problem.graph
    # Diameter gathers with op "or"; triangle declares no gather shape.
    for name in ("diameter", "triangle"):
        kernels = Kernels(create(name), graph)
        assert not kernels.fused
        assert not kernels.can_gather and not kernels.can_scatter
    kernels = Kernels(create("pagerank"), graph)
    assert kernels.fused and kernels.can_gather and kernels.can_scatter
    cc = Kernels(create("cc"), graph)
    assert cc.fused and cc.can_gather and not cc.can_scatter
    kmeans = Kernels(create("kmeans"), graph)
    assert kmeans.can_gather and not kmeans.can_scatter


def test_count_gather_rejects_labels_outside_its_width():
    """A count label outside ``[0, gather_width)`` would land in the
    next vertex's histogram row; the dense gather refuses it."""
    from repro._util.errors import ValidationError

    problem = powerlaw_graph(400, 2.5, seed=3, with_points=True)
    program = create("kmeans")
    ctx = Context(problem)
    program.init(ctx)
    kernels = Kernels(program, problem.graph)
    everyone = np.arange(problem.graph.n_vertices, dtype=np.int64)
    for bad in (program.k, -1):
        program.assignment[0] = bad
        with pytest.raises(ValidationError, match="labels"):
            kernels.gather(ctx, everyone, dense=True)


def test_reduce_block_matches_segmented_reduce():
    """The single-block fast path is bit-identical to the general
    segment kernel (both reduce via ``ufunc.reduceat``; a plain
    ``ufunc.reduce`` would re-associate the sum and change bits)."""
    from repro._util.segments import segmented_reduce

    rng = np.random.default_rng(31)
    values = rng.random(257)
    out = reduce_block(values, "sum")
    ref = segmented_reduce(values, np.asarray([values.size]), "sum")
    assert out.shape == (1,)
    assert out[0] == ref[0]
    assert reduce_block(values, "min")[0] == values.min()


def test_auto_switch_telemetry(tmp_path, monkeypatch):
    """A run that crosses the direction threshold mid-flight puts its
    per-mode iteration counts and its switch points on the span around
    it (``engine_run`` in a corpus cell)."""
    from repro.obs.telemetry import configure, deactivate

    problem = powerlaw_graph(2_000, 2.3, seed=11)
    # PageRank's frontier decays gradually: with the threshold at 0.5
    # the run starts in pull mode and switches to push as it drains.
    monkeypatch.setitem(PULL_FROM, "auto", 0.5)
    base = run_arm("pagerank", problem, "auto")
    fractions = [r.active / problem.graph.n_vertices
                 for r in base[0].iterations]
    assert max(fractions) >= 0.5 > min(fractions), \
        "workload must cross the threshold for this test to bite"

    tel = configure("full", run_id="dirsw")
    try:
        with tel.span("engine_run") as span:
            run_arm("pagerank", problem, "auto")
        facts = span.labels
        assert facts["pull_iterations"] == sum(f >= 0.5 for f in fractions)
        assert facts["push_iterations"] == sum(f < 0.5 for f in fractions)
        assert facts["switches"] and all(
            mode == "push" and fraction < 0.5
            for mode, fraction in facts["switches"])
    finally:
        deactivate()


def test_verify_env_name_is_stable(monkeypatch):
    """The in-line cross-check left ``src/`` with its env switch: the
    old name, still set in somebody's shell, is inert — a mis-declared
    program runs, and only the wrapper above catches it."""
    monkeypatch.setenv("REPRO_VERIFY_FUSED", "1")
    with pull_from(0.0):
        trace = SynchronousEngine().run(
            MisdeclaredCC(), powerlaw_graph(400, 2.5, seed=3))
    assert trace.n_iterations >= 1


# ----------------------------------------------------------------------
# Full-frontier views: a frontier as long as the vertex count takes the
# adjacency arrays as they stand instead of slicing every slot out
# ----------------------------------------------------------------------
def _sliced_edges(self, vids):
    """``_Side.edges`` with the view branch cut away."""
    starts, ends = self.ptr[vids], self.ptr[vids + 1]
    slots = concat_ranges(starts, ends)
    return (self.idx[slots], np.repeat(vids, ends - starts),
            self.eid[slots], ends - starts)


def _with_isolated_vertex(problem):
    """``problem`` plus one vertex no edge touches, its id the last."""
    graph = problem.graph
    src, dst = graph.edge_endpoints()
    return ProblemInstance(
        graph=Graph.from_edges(graph.n_vertices + 1, src, dst,
                               directed=graph.directed),
        domain=problem.domain, params=dict(problem.params))


def test_full_frontier_views_are_the_sliced_slots():
    """Kernel level: everyone through the views against everyone but
    an isolated vertex — which owns no slot — through the slices."""
    problem = _with_isolated_vertex(powerlaw_graph(2_000, 2.3, seed=11))
    n = problem.graph.n_vertices
    everyone = np.arange(n, dtype=np.int64)
    program = unfused(create("pagerank"))
    ctx = Context(problem)
    program.init(ctx)
    kernels = Kernels(program, problem.graph)
    for side in (kernels._gather_side, kernels._scatter_side):
        views, slices = side.edges(everyone), side.edges(everyone[:-1])
        assert views[0] is side.idx and views[2] is side.eid
        assert not any(arr.flags.writeable for arr in views)
        for view, sliced in zip(views[:3], slices[:3]):
            np.testing.assert_array_equal(view, sliced)
        assert views[3][-1] == 0
        np.testing.assert_array_equal(views[3][:-1], slices[3])

    acc, reads = kernels.gather(ctx, everyone)
    acc_sliced, reads_sliced = kernels.gather(ctx, everyone[:-1])
    assert acc[:-1].tobytes() == acc_sliced.tobytes()
    assert acc[-1] == 0.0 and reads == reads_sliced
    program.apply(ctx, everyone, acc)  # so that there is news to signal
    signaled, messages = kernels.scatter(ctx, everyone)
    signaled_sliced, messages_sliced = kernels.scatter(ctx, everyone[:-1])
    np.testing.assert_array_equal(signaled, signaled_sliced)
    assert messages == messages_sliced > 0


#: (algorithm, engine factory or None for synchronous push) whose
#: steps start from — or never leave — the full vertex set.
VIEW_RUNS = {
    "synchronous-kmeans": ("kmeans", None),
    "synchronous-pagerank": ("pagerank", None),
    "synchronous-cc": ("cc", None),
    "edge-centric-cc": ("cc", EdgeCentricEngine),
    "graph-centric-cc": ("cc", lambda: GraphCentricEngine(
        GraphCentricOptions(n_partitions=1))),
    # Pops one vertex at a time: never reaches ``edges`` at all.
    "asynchronous-cc": ("cc", AsynchronousEngine),
}


@pytest.mark.parametrize("case", sorted(VIEW_RUNS))
def test_view_steps_and_sliced_steps_trace_identically(case, monkeypatch):
    """Engine level: the same callback-path run with the view branch
    live and cut away — every accumulator handed to ``apply``, every
    counter, every frontier and the final state, bit for bit."""
    algorithm, make_engine = VIEW_RUNS[case]
    problem = powerlaw_graph(2_000, 2.3, seed=11,
                             with_points=algorithm == "kmeans")
    n = problem.graph.n_vertices

    def run():
        program = unfused(create(algorithm))
        accs = []
        inner_apply = program.apply

        def recording_apply(ctx, vids, acc):
            accs.append(None if acc is None else np.asarray(acc).tobytes())
            return inner_apply(ctx, vids, acc)

        program.apply = recording_apply
        out = run_arm(algorithm, problem, "push", program=program,
                      engine=make_engine and make_engine(),
                      max_iterations=12)
        return out, accs

    full_steps = []
    production_edges = _Side.edges
    monkeypatch.setattr(_Side, "edges", lambda self, vids: (
        full_steps.append(vids.size == n),
        production_edges(self, vids))[1])
    views, view_accs = run()
    assert any(full_steps) == (not case.startswith("asynchronous"))

    monkeypatch.setattr(_Side, "edges", _sliced_edges)
    slices, sliced_accs = run()
    assert_equivalent(views, slices, case)
    assert view_accs == sliced_accs and len(view_accs) >= 2


def test_one_side_per_stored_adjacency():
    """Every program gathers IN and scatters OUT. On an undirected
    graph those are the same arrays, so one side (one slot-centre
    array, one set of reduceat offsets) and one ones-matrix serve both
    phases; a directed graph keeps a side per orientation."""
    undirected = powerlaw_graph(500, 2.5, seed=3).graph
    kernels = Kernels(create("pagerank"), undirected)
    assert kernels._gather_side is kernels._scatter_side
    assert undirected.ones_adjacency_csr("in") \
        is undirected.ones_adjacency_csr("out")

    directed = matrix_problem(40, seed=3).graph
    kernels = Kernels(create("jacobi"), directed)
    assert kernels._gather_side is not kernels._scatter_side
    assert kernels._gather_side.ptr is directed.in_ptr
    assert kernels._scatter_side.ptr is directed.out_ptr
    assert directed.ones_adjacency_csr("in") \
        is not directed.ones_adjacency_csr("out")
