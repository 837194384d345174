"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.behavior.trace import IterationRecord, RunTrace
from repro.generators import mrf_problem, powerlaw_graph
from repro.generators.rng import make_rng


class TestPowerlawProperties:
    @given(st.integers(50, 2_000),
           st.floats(2.0, 3.0),
           st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_structural_invariants(self, nedges, alpha, seed):
        prob = powerlaw_graph(nedges, alpha, seed=seed)
        g = prob.graph
        # Edge count within generator tolerance.
        assert abs(g.n_edges - nedges) <= max(1, 0.02 * nedges)
        # Symmetric storage, no self loops, no duplicates.
        assert g.n_arcs == 2 * g.n_edges
        src, dst = g.edge_endpoints()
        assert np.all(src != dst)
        keys = np.minimum(src, dst) * g.n_vertices + np.maximum(src, dst)
        assert np.unique(keys).size == keys.size
        # Degree sum identity.
        assert int(g.degree.sum()) == 2 * g.n_edges

    @given(st.integers(100, 1_000), st.floats(2.0, 3.0))
    @settings(max_examples=10, deadline=None)
    def test_reproducibility(self, nedges, alpha):
        a = powerlaw_graph(nedges, alpha, seed=3)
        b = powerlaw_graph(nedges, alpha, seed=3)
        np.testing.assert_array_equal(a.graph.out_dst, b.graph.out_dst)
        np.testing.assert_array_equal(a.graph.out_ptr, b.graph.out_ptr)


class TestMRFProperties:
    @given(st.integers(12, 400), st.integers(2, 4), st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_exact_edges_and_valid_tables(self, nedges, n_states, seed):
        prob = mrf_problem(nedges, n_states=n_states, seed=seed)
        mrf = prob.inputs["mrf"]
        assert prob.graph.n_edges == nedges
        mrf.validate()  # raises on any shape violation
        assert all(t.shape == (n_states, n_states) for t in mrf.pair_tables)


class TestTraceProperties:
    @given(st.lists(
        st.tuples(st.integers(0, 1_000), st.integers(0, 1_000),
                  st.integers(0, 10_000), st.integers(0, 10_000),
                  st.floats(0, 1e3, allow_nan=False)),
        max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_json_roundtrip(self, rows):
        trace = RunTrace(
            algorithm="prop", graph_params={"nedges": 10, "alpha": 2.0},
            domain="ga", n_vertices=1_000, n_edges=10,
            iterations=[IterationRecord(i, *row)
                        for i, row in enumerate(rows)],
            converged=bool(len(rows) % 2), stop_reason="x",
            result={"v": 1.5},
        )
        assert RunTrace.from_json(trace.to_json()) == trace

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_active_fraction_bounds(self, actives):
        n = max(actives) if max(actives) > 0 else 1
        trace = RunTrace(
            algorithm="prop", graph_params={}, domain="ga",
            n_vertices=n, n_edges=5,
            iterations=[IterationRecord(i, a, a, 0, 0, 0.0)
                        for i, a in enumerate(actives)],
        )
        af = trace.active_fraction()
        assert np.all(af >= 0) and np.all(af <= 1.0)


class TestRngProperties:
    @given(st.integers(0, 2**31 - 1), st.text(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_streams_are_stable_and_distinct(self, seed, context):
        a = make_rng(seed, context).random(3)
        b = make_rng(seed, context).random(3)
        np.testing.assert_array_equal(a, b)
        other = make_rng(seed, context + "x").random(3)
        assert not np.array_equal(a, other)


class TestEnginePropertyOnRandomGraphs:
    """Engine invariants over random structures, not just fixtures."""

    @given(st.integers(0, 2**31 - 1), st.integers(20, 300))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cc_counter_invariants(self, seed, nedges):
        from repro.behavior.run import run_computation
        from repro.experiments.config import GraphSpec

        spec = GraphSpec.ga(nedges=nedges, alpha=2.5, seed=seed)
        trace = run_computation("cc", spec)
        m = trace.n_edges
        n = trace.n_vertices
        for rec in trace.iterations:
            # No phase can touch more than the structure allows.
            assert 0 <= rec.active <= n
            assert rec.updates == rec.active
            assert 0 <= rec.edge_reads <= 2 * m
            assert 0 <= rec.messages <= 2 * m
        # Label propagation converges on every input.
        assert trace.converged


def _counters_strategy():
    """Counter blocks with integer-valued fields.

    ``work`` is drawn from integers (then cast to float) so that
    addition is *exactly* associative — float rounding would make the
    associativity assertion flaky for free-form floats without
    reflecting any real merge bug.
    """
    from repro.engine.instrumentation import Counters

    nonneg = st.integers(0, 10**9)
    return st.builds(Counters, active=nonneg, updates=nonneg,
                     edge_reads=nonneg, messages=nonneg,
                     work=nonneg.map(float))


class TestCountersMergeProperties:
    """The counter merge rule behind sub-sweep folding: ``active``
    max-merges (population gauge), everything else sums (flow). See
    docs/metrics.md."""

    @given(_counters_strategy(), _counters_strategy(),
           _counters_strategy())
    @settings(max_examples=80, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        from dataclasses import replace

        left = replace(a)
        left_inner = replace(b)
        left_inner.merge(c)
        left.merge(left_inner)       # a . (b . c)

        right = replace(a)
        right.merge(b)
        right.merge(c)               # (a . b) . c

        assert left == right

    @given(_counters_strategy(), _counters_strategy())
    @settings(max_examples=80, deadline=None)
    def test_active_is_max_merged_others_sum(self, a, b):
        from dataclasses import replace

        merged = replace(a)
        merged.merge(b)
        assert merged.active == max(a.active, b.active)
        assert merged.updates == a.updates + b.updates
        assert merged.edge_reads == a.edge_reads + b.edge_reads
        assert merged.messages == a.messages + b.messages
        assert merged.work == a.work + b.work

    @given(_counters_strategy(), _counters_strategy())
    @settings(max_examples=40, deadline=None)
    def test_merge_is_commutative(self, a, b):
        from dataclasses import replace

        ab = replace(a)
        ab.merge(b)
        ba = replace(b)
        ba.merge(a)
        assert ab == ba
