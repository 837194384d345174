"""The two-level health signature against its oracle
(``tests/engine_oracle.py::EagerMonitor``, the every-check blake2b
monitor production ran before): same verdicts, a recurrence exactly
``period`` checks later, nothing ever decided on a fingerprint."""

import numpy as np
import pytest

from repro._util.errors import NonConvergenceError
from repro.behavior.run import run_computation
from repro.engine import (
    AsyncEngineOptions,
    AsynchronousEngine,
    EdgeCentricEngine,
    EdgeCentricOptions,
    EngineOptions,
    GraphCentricEngine,
    GraphCentricOptions,
    HealthMonitor,
    SynchronousEngine,
)
from repro.engine import health
from repro.experiments.config import GraphSpec
from repro.generators import powerlaw_graph
from tests.engine_oracle import EagerMonitor, eager_monitor
from tests.test_health import ENGINE_NAMES, PathologicalProgram

#: mode -> (program mode, injected fault, condition, period in checks;
#: None where the verdict is not a recurrence and must not move).
MODES = {
    "stall": ("stall", None, "stall", 1),
    "oscillation": ("oscillation", None, "oscillation", 2),
    "divergence": ("divergence", None, "divergence", None),
    "numeric": ("healthy", "nan@1", "numeric", None),
}


@pytest.fixture(scope="module")
def problem():
    return powerlaw_graph(300, 2.5, seed=5)


def _run(engine, program, problem, **options):
    """``degrade`` runs with caps that leave a 20-check window at
    cadence 3 room to fill and then some."""
    options.setdefault("health_policy", "degrade")
    if engine == "synchronous":
        return SynchronousEngine(EngineOptions(
            max_iterations=120, **options)).run(program, problem)
    if engine == "asynchronous":
        return AsynchronousEngine(AsyncEngineOptions(
            max_steps=200_000, **options)).run(program, problem)
    if engine == "edge-centric":
        return EdgeCentricEngine(EdgeCentricOptions(
            max_iterations=120, **options)).run(program, problem)
    return GraphCentricEngine(GraphCentricOptions(
        max_supersteps=120, max_inner_sweeps=3, **options)).run(
            program, problem)


# A NaN injected between two checks at cadence 3 is streamed once.
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("window", [4, 20])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_production_decides_what_the_eager_monitor_decides(
        engine, mode, window, every, problem, monkeypatch):
    program_mode, fault, condition, period = MODES[mode]
    monkeypatch.setattr(health, "WATCHDOG_WINDOW", window)
    monkeypatch.setattr(health, "CHECK_EVERY", every)
    options = dict(inject_fault=fault)
    production = _run(engine, PathologicalProgram(program_mode), problem,
                      **options).health
    eager_monitor(monkeypatch)
    oracle = _run(engine, PathologicalProgram(program_mode), problem,
                  **options).health

    assert oracle["condition"] == condition
    assert (production["condition"], production["detail"]) == (
        oracle["condition"], oracle["detail"])
    late = 0 if period is None else period * every
    assert production["iteration"] == oracle["iteration"] + late


class _State:
    """The least a monitor observes: named arrays on an instance."""
    name = "permuted"

    def __init__(self, values):
        self.values = values


def test_a_false_candidate_is_hashed_and_never_fires(monkeypatch):
    """Permutations of one array: equal word sums, different bytes.
    Every check after the first is nominated, digested, and found to
    repeat nothing."""
    digested = []
    signature = health._signature
    monkeypatch.setattr(
        health, "_signature",
        lambda *args: digested.append(1) or signature(*args))
    base = np.arange(64, dtype=np.float64)
    frontier = np.arange(64)
    monitor, oracle = HealthMonitor(window=4), EagerMonitor(window=4)
    for check in range(24):
        state = _State(np.roll(base, check))
        assert health._fingerprint(frontier, vars(state)) == \
            health._fingerprint(frontier, {"values": base})
        for each in (monitor, oracle):
            assert each.observe(state, iteration=check, frontier=frontier,
                                work=1.0) is None
    assert len(digested) == 23  # production's every check but the first
    assert list(monitor._signatures) == list(oracle._signatures)


def test_a_healthy_run_never_pays_for_a_digest(problem, monkeypatch):
    monkeypatch.setattr(health, "_signature", lambda *args: 1 / 0)
    trace = run_computation("pagerank", problem)
    assert trace.converged and trace.n_iterations > 4


def test_fingerprint_covers_the_bytes_the_digest_covers():
    """Ragged byte counts, bools, 2-D and non-contiguous state: one
    flipped byte anywhere moves the fingerprint."""
    arrays = {"flags": np.zeros(13, dtype=bool),
              "grid": np.zeros((3, 5), dtype=np.float32),
              "strided": np.zeros(20, dtype=np.int64)[::2]}
    frontier = np.arange(5)
    clean = health._fingerprint(frontier, arrays)
    assert clean == health._fingerprint(frontier.astype(np.int32), arrays)
    assert clean != health._fingerprint(frontier[:4], arrays)
    for name, index in (("flags", 12), ("grid", (2, 4)), ("strided", 9)):
        arrays[name][index] = 1
        assert health._fingerprint(frontier, arrays) != clean
        arrays[name][index] = 0
    assert health._fingerprint(frontier, arrays) == clean
    assert health._fingerprint(None, arrays) == \
        health._fingerprint(np.empty(0, dtype=np.int64), arrays)


def test_the_kmeans_oscillation_we_know(monkeypatch):
    """The one real trip in the corpus's reach (EXPERIMENTS.md, "The
    k-means watchdog trip"): two adjacent boundary points trade labels
    from iteration 21 on. The oracle sees a full window of it at
    iteration 40, production two checks later."""
    spec = GraphSpec.for_domain("clustering", nedges=10000, alpha=2.25,
                                seed=2)

    def trip():
        with pytest.raises(NonConvergenceError) as excinfo:
            run_computation("kmeans", spec)
        return (excinfo.value.condition, excinfo.value.iteration,
                excinfo.value.detail)

    detail = ("frontier and state repeat with period 2 over the last "
              "20 checks")
    assert trip() == ("oscillation", 42, detail)
    eager_monitor(monkeypatch)
    assert trip() == ("oscillation", 40, detail)
