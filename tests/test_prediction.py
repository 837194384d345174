"""Tests for the behavior-based performance prediction package that
ships with ``examples/compare_systems.py``."""

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.behavior.metrics import METRIC_NAMES, BehaviorMetrics
from examples.prediction import (
    SystemModel,
    compare_systems,
    fit_system_model,
    predict_cost,
    predict_ensemble_cost,
)
from examples.prediction.cost_model import ARCHETYPES


def metrics(updt=0.5, work=1e-8, eread=1.0, msg=0.8, iters=10):
    return BehaviorMetrics(updt, work, eread, msg, 0.5, iters)


class TestSystemModel:
    def test_weight_vector_order(self):
        m = SystemModel("s", weights={"msg": 4.0, "updt": 1.0})
        np.testing.assert_allclose(m.weight_vector(), [1.0, 0, 0, 4.0])

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValidationError):
            SystemModel("s", weights={"latency": 1.0})

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            SystemModel("s", weights={"msg": -1.0})
        with pytest.raises(ValidationError):
            SystemModel("s", overhead=-0.1)

    def test_archetypes_valid(self):
        for name, model in ARCHETYPES.items():
            assert model.name == name
            assert set(model.weights) <= set(METRIC_NAMES)


class TestPredictCost:
    def test_hand_computed(self):
        model = SystemModel("s", weights={"updt": 2.0, "msg": 1.0},
                            overhead=0.5)
        m = metrics(updt=0.5, msg=0.8, iters=10)
        # per iter: 2*0.5 + 1*0.8 + 0.5 = 2.3 → ×10 iterations.
        assert predict_cost(model, m) == pytest.approx(23.0)

    def test_iteration_override(self):
        model = SystemModel("s", weights={"updt": 1.0})
        m = metrics(updt=1.0, work=0, eread=0, msg=0, iters=10)
        assert predict_cost(model, m, n_iterations=3) == pytest.approx(3.0)

    def test_rejects_zero_iterations(self):
        model = SystemModel("s")
        with pytest.raises(ValidationError):
            predict_cost(model, metrics(iters=0))

    def test_ensemble_cost_additive(self):
        model = ARCHETYPES["shared-memory"]
        ms = [metrics(), metrics(msg=2.0)]
        assert predict_ensemble_cost(model, ms) == pytest.approx(
            predict_cost(model, ms[0]) + predict_cost(model, ms[1]))

    def test_ensemble_cost_rejects_empty(self):
        with pytest.raises(ValidationError):
            predict_ensemble_cost(ARCHETYPES["out-of-core"], [])


class TestFitSystemModel:
    def test_recovers_planted_weights(self, rng):
        true = SystemModel("truth",
                           weights={"updt": 1.5, "work": 3e7,
                                    "eread": 0.7, "msg": 4.0},
                           overhead=0.2)
        observations = []
        costs = []
        for _ in range(40):
            m = BehaviorMetrics(
                updt=float(rng.uniform(0, 2)),
                work=float(rng.uniform(0, 2e-8)),
                eread=float(rng.uniform(0, 2)),
                msg=float(rng.uniform(0, 2)),
                active_fraction_mean=0.5,
                n_iterations=int(rng.integers(5, 50)),
            )
            observations.append(m)
            costs.append(predict_cost(true, m))
        fitted = fit_system_model("fit", observations, costs)
        for name in METRIC_NAMES:
            assert fitted.weights[name] == pytest.approx(
                true.weights[name], rel=1e-6)
        assert fitted.overhead == pytest.approx(0.2, rel=1e-6)

    def test_predicts_unseen_runs(self, rng):
        true = ARCHETYPES["sync-distributed"]
        train, costs = [], []
        for _ in range(20):
            m = metrics(updt=float(rng.uniform(0, 2)),
                        work=float(rng.uniform(0, 2e-8)),
                        eread=float(rng.uniform(0, 2)),
                        msg=float(rng.uniform(0, 2)),
                        iters=int(rng.integers(3, 30)))
            train.append(m)
            costs.append(predict_cost(true, m))
        fitted = fit_system_model("fit", train, costs)
        probe = metrics(updt=1.7, work=1.3e-8, eread=0.3, msg=1.9, iters=7)
        assert predict_cost(fitted, probe) == pytest.approx(
            predict_cost(true, probe), rel=1e-4)

    def test_rejects_misaligned(self):
        with pytest.raises(ValidationError):
            fit_system_model("x", [metrics()], [1.0, 2.0])

    def test_rejects_underdetermined(self):
        with pytest.raises(ValidationError):
            fit_system_model("x", [metrics()] * 3, [1.0] * 3)


class TestCompareSystems:
    def test_winner_by_construction(self):
        cheap = SystemModel("cheap", weights={"msg": 0.1})
        pricey = SystemModel("pricey", weights={"msg": 10.0})
        report = compare_systems(cheap, pricey, [metrics(), metrics(msg=2)])
        assert report.overall_winner == "cheap"
        assert report.wins_a == 2 and report.wins_b == 0
        assert not report.split_decision

    def test_split_decision_detected(self):
        compute_bound = SystemModel("A", weights={"work": 1e8, "msg": 0.1})
        msg_bound = SystemModel("B", weights={"work": 1e6, "msg": 5.0})
        runs = [
            metrics(work=5e-8, msg=0.01),  # heavy compute → B wins
            metrics(work=1e-10, msg=2.0),  # heavy messaging → A wins
        ]
        report = compare_systems(compute_bound, msg_bound, runs)
        assert report.split_decision

    def test_rows_tagged_and_summary(self):
        a = SystemModel("a", weights={"updt": 1.0})
        b = SystemModel("b", weights={"updt": 2.0})
        report = compare_systems(a, b, [metrics()], tags=["run-0"])
        assert report.rows[0][0] == "run-0"
        assert "a vs b" in report.summary()

    def test_rejects_empty_and_misaligned(self):
        a = SystemModel("a")
        with pytest.raises(ValidationError):
            compare_systems(a, a, [])
        with pytest.raises(ValidationError):
            compare_systems(a, a, [metrics()], tags=[1, 2])


class TestFindingOne:
    """Paper finding (1): narrow ensembles can crown either system;
    diverse ensembles characterize fairly."""

    def test_single_algorithm_ensembles_flip_the_verdict(self, mini_corpus):
        a = ARCHETYPES["shared-memory"]
        b = ARCHETYPES["sync-distributed"]
        winners = set()
        for alg in mini_corpus.algorithms():
            runs = mini_corpus.by_algorithm(alg)
            report = compare_systems(a, b, [r.metrics for r in runs])
            winners.add(report.overall_winner)
        # At least two different "overall winners" across single-
        # algorithm studies — the Table 1 phenomenon.
        assert len(winners) >= 2
