"""Production vs reference engine equivalence — the library's core
correctness guarantee: the synchronous engine and the vertex-at-a-time
oracle (``tests/engine_oracle.py``) must produce identical synchronous
traces for every algorithm, counter for counter.
"""

import numpy as np
import pytest

from repro.algorithms.registry import iter_algorithms
from repro.behavior.run import run_computation
from repro.experiments.config import GraphSpec
from tests.engine_oracle import run_reference

SPEC_BY_DOMAIN = {
    "ga": GraphSpec.ga(nedges=300, alpha=2.5, seed=21),
    "clustering": GraphSpec.clustering(nedges=300, alpha=2.5, seed=21),
    "cf": GraphSpec.cf(nedges=200, alpha=2.5, seed=21),
    "matrix": GraphSpec.matrix(25, seed=21),
    "grid": GraphSpec.grid(8, seed=21),
    "mrf": GraphSpec.mrf(48, seed=21),
}

ALGORITHMS = [rec.name for rec in iter_algorithms()]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_modes_produce_identical_traces(algorithm):
    from repro.algorithms.registry import info

    spec = SPEC_BY_DOMAIN[info(algorithm).domain]
    vec = run_computation(algorithm, spec)
    ref = run_reference(algorithm, spec)

    assert vec.n_iterations == ref.n_iterations, "iteration counts differ"
    assert vec.stop_reason == ref.stop_reason
    for a, b in zip(vec.iterations, ref.iterations):
        assert a.active == b.active, f"active differs at iter {a.iteration}"
        assert a.updates == b.updates, f"updates differ at iter {a.iteration}"
        assert a.edge_reads == b.edge_reads, \
            f"edge_reads differ at iter {a.iteration}"
        assert a.messages == b.messages, \
            f"messages differ at iter {a.iteration}"
        assert a.work == pytest.approx(b.work, rel=1e-12), \
            f"unit work differs at iter {a.iteration}"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_modes_produce_identical_results(algorithm):
    """Algorithm outputs (not just counters) must match across modes."""
    from repro.algorithms.registry import info

    spec = SPEC_BY_DOMAIN[info(algorithm).domain]
    vec = run_computation(algorithm, spec)
    ref = run_reference(algorithm, spec)
    assert set(vec.result) == set(ref.result)
    for key, value in vec.result.items():
        other = ref.result[key]
        if isinstance(value, float):
            assert value == pytest.approx(other, rel=1e-9), key
        elif isinstance(value, list):
            np.testing.assert_allclose(value, other, rtol=1e-9)
        else:
            assert value == other, key


def test_runs_are_deterministic():
    """Same spec + seed → bit-identical traces (modulo wall-clock
    provenance: timings and where the graph came from — the second run
    resolves through the per-process graph cache)."""
    spec = SPEC_BY_DOMAIN["ga"]
    a = run_computation("pagerank", spec).to_dict()
    b = run_computation("pagerank", spec).to_dict()
    for d in (a, b):
        d.pop("wall_time_s")
        for key in ("materialize_s", "engine_s", "graph_source"):
            d["meta"].pop(key, None)
    assert a == b
