"""Tests for traces, the five metrics, and the behavior space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import ValidationError
from repro.behavior.metrics import (
    BehaviorMetrics,
    compute_metrics,
    resample_series,
)
from repro.behavior.space import (
    BehaviorSpace,
    BehaviorVector,
    normalize_corpus,
)
from repro.behavior.trace import IterationRecord, RunTrace


def make_trace(records, n_vertices=10, n_edges=20, **kw):
    return RunTrace(
        algorithm=kw.pop("algorithm", "toy"),
        graph_params=kw.pop("graph_params", {"nedges": n_edges, "alpha": 2.5}),
        domain="ga",
        n_vertices=n_vertices,
        n_edges=n_edges,
        iterations=[IterationRecord(i, *rec) for i, rec in enumerate(records)],
        **kw,
    )


class TestRunTrace:
    def test_series_and_means(self):
        t = make_trace([(5, 5, 10, 3, 0.5), (2, 2, 4, 1, 0.1)])
        assert t.series("active").tolist() == [5.0, 2.0]
        assert t.mean("messages") == 2.0
        assert t.n_iterations == 2

    def test_active_fraction(self):
        t = make_trace([(5, 5, 0, 0, 0.0)], n_vertices=10)
        assert t.active_fraction().tolist() == [0.5]

    def test_unknown_series_rejected(self):
        t = make_trace([(1, 1, 1, 1, 1.0)])
        with pytest.raises(ValidationError):
            t.series("latency")

    def test_empty_trace(self):
        t = make_trace([])
        assert t.mean("work") == 0.0
        assert t.active_fraction().size == 0

    def test_json_roundtrip(self, tmp_path):
        t = make_trace([(5, 5, 10, 3, 0.5)], converged=True,
                       stop_reason="converged", result={"x": 1.5})
        path = tmp_path / "trace.json"
        t.to_json(path)
        back = RunTrace.from_json(path)
        assert back == t

    def test_json_string_roundtrip(self):
        t = make_trace([(1, 1, 2, 3, 0.25)])
        assert RunTrace.from_json(t.to_json()) == t

    def test_label_and_summary(self):
        t = make_trace([(1, 1, 1, 1, 1.0)])
        assert "toy@ga" in t.label
        assert "α=2.5" in t.label
        assert "iterations=1" in t.summary()


class TestComputeMetrics:
    def test_hand_computed(self):
        t = make_trace([(10, 10, 40, 20, 2.0), (2, 2, 8, 0, 1.0)],
                       n_vertices=10, n_edges=20)
        m = compute_metrics(t)
        assert m.updt == pytest.approx(6.0 / 20)
        assert m.work == pytest.approx(1.5 / 20)
        assert m.eread == pytest.approx(24.0 / 20)
        assert m.msg == pytest.approx(10.0 / 20)
        assert m.active_fraction_mean == pytest.approx(0.6)
        assert m.n_iterations == 2

    def test_as_array_order(self):
        m = BehaviorMetrics(1, 2, 3, 4, 0.5, 7)
        assert m.as_array().tolist() == [1, 2, 3, 4]
        assert m["updt"] == 1 and m["msg"] == 4

    def test_getitem_rejects_unknown(self):
        m = BehaviorMetrics(1, 2, 3, 4, 0.5, 7)
        with pytest.raises(ValidationError):
            m["latency"]

    def test_rejects_zero_edges(self):
        t = make_trace([(1, 1, 1, 1, 1.0)], n_edges=0)
        with pytest.raises(ValidationError):
            compute_metrics(t)


class TestResampleSeries:
    def test_endpoints_preserved(self):
        out = resample_series(np.array([1.0, 0.5, 0.0]), 7)
        assert out[0] == 1.0 and out[-1] == 0.0
        assert out.size == 7

    def test_constant(self):
        out = resample_series(np.array([2.0]), 5)
        assert np.all(out == 2.0)

    def test_empty(self):
        assert resample_series(np.array([]), 4).tolist() == [0, 0, 0, 0]

    def test_rejects_tiny_target(self):
        with pytest.raises(ValidationError):
            resample_series(np.array([1.0]), 1)


class TestNormalizeCorpus:
    def _metrics(self, rows):
        return [BehaviorMetrics(*row, 0.5, 3) for row in rows]

    def test_max_scheme(self):
        vecs = normalize_corpus(self._metrics([(1, 2, 4, 8), (2, 4, 8, 16)]),
                                scheme="max")
        assert vecs[0].as_array().tolist() == [0.5, 0.5, 0.5, 0.5]
        assert vecs[1].as_array().tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_max_scheme_upper_bound(self):
        vecs = normalize_corpus(self._metrics([(3, 1, 7, 2), (1, 5, 2, 9)]))
        for v in vecs:
            assert v.as_array().max() <= 1.0
            assert v.as_array().min() >= 0.0

    def test_log_scheme_spans_unit_interval(self):
        vecs = normalize_corpus(
            self._metrics([(1e-3, 1e-3, 1e-3, 1e-3), (1.0, 1.0, 1.0, 1.0)]),
            scheme="log")
        np.testing.assert_allclose(vecs[0].as_array(), 0.0)
        np.testing.assert_allclose(vecs[1].as_array(), 1.0)

    def test_zero_dimension_handled(self):
        vecs = normalize_corpus(self._metrics([(0, 1, 1, 1), (0, 2, 2, 2)]))
        assert vecs[0].updt == 0.0

    def test_tags_carried(self):
        vecs = normalize_corpus(self._metrics([(1, 1, 1, 1)]),
                                tags=[("pagerank", 100, 2.5)])
        assert vecs[0].tag == ("pagerank", 100, 2.5)

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValidationError):
            normalize_corpus(self._metrics([(1, 1, 1, 1)]), scheme="sqrt")

    def test_rejects_misaligned_tags(self):
        with pytest.raises(ValidationError):
            normalize_corpus(self._metrics([(1, 1, 1, 1)]), tags=[1, 2])

    def test_empty(self):
        assert normalize_corpus([]) == []


class TestBehaviorSpace:
    def test_diameter(self):
        assert BehaviorSpace().diameter == pytest.approx(2.0)
        assert BehaviorSpace(dims=1).diameter == 1.0

    def test_sample_bounds_and_determinism(self):
        space = BehaviorSpace()
        a = space.sample(100, seed=5)
        b = space.sample(100, seed=5)
        np.testing.assert_array_equal(a, b)
        assert space.contains(a)
        assert a.shape == (100, 4)

    def test_contains(self):
        space = BehaviorSpace()
        assert not space.contains(np.array([[0.5, 0.5, 0.5, 1.5]]))

    def test_to_matrix_dim_check(self):
        space = BehaviorSpace(dims=3)
        v = BehaviorVector(0.1, 0.2, 0.3, 0.4)
        with pytest.raises(ValidationError):
            space.to_matrix([v])

    def test_vector_distance(self):
        a = BehaviorVector(0, 0, 0, 0)
        b = BehaviorVector(1, 1, 1, 1)
        assert a.distance(b) == pytest.approx(2.0)
        assert a["updt"] == 0.0
        with pytest.raises(ValidationError):
            a["nope"]


@given(st.lists(
    st.tuples(*[st.floats(0, 1e6, allow_nan=False) for _ in range(4)]),
    min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_normalization_property(rows):
    """Every scheme maps any non-negative corpus into [0, 1]^4."""
    metrics = [BehaviorMetrics(*r, 0.5, 2) for r in rows]
    for scheme in ("max", "log"):
        vecs = normalize_corpus(metrics, scheme=scheme)
        mat = np.vstack([v.as_array() for v in vecs])
        assert mat.min() >= -1e-12
        assert mat.max() <= 1 + 1e-12
