"""Linear behavior-cost models of graph-processing systems.

A system's per-iteration cost on a run is modeled as

``cost = w_updt·UPDT + w_work·WORK + w_eread·EREAD + w_msg·MSG + w_0``

with the behavior metrics in their raw per-edge form (not
corpus-normalized — a cost model must be corpus-independent). The
weights express the system's architecture: a communication-bound
distributed engine pays heavily per message, an out-of-core engine per
edge read, a JIT-compiled single-node engine mostly per unit of apply
work.

``fit_system_model`` recovers weights from (behavior, measured cost)
observations by non-negative least squares, so a model can be
calibrated against a handful of profiled runs and then *predict* the
cost of unseen (algorithm, graph) pairs — the paper's future-work
question.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from repro._util.errors import ValidationError
from repro.behavior.metrics import METRIC_NAMES, BehaviorMetrics


@dataclass(frozen=True)
class SystemModel:
    """A graph-processing system as behavior-unit costs.

    Attributes
    ----------
    name:
        Display name, e.g. ``"sync-distributed"``.
    weights:
        Cost per unit of each behavior metric, keyed by
        :data:`~repro.behavior.metrics.METRIC_NAMES`.
    overhead:
        Fixed per-iteration cost (barrier/synchronization overhead).
    """

    name: str
    weights: dict[str, float] = field(default_factory=dict)
    overhead: float = 0.0

    def __post_init__(self) -> None:
        unknown = set(self.weights) - set(METRIC_NAMES)
        if unknown:
            raise ValidationError(f"unknown metric weights: {sorted(unknown)}")
        if any(w < 0 for w in self.weights.values()) or self.overhead < 0:
            raise ValidationError("cost weights must be non-negative")

    def weight_vector(self) -> np.ndarray:
        return np.asarray([self.weights.get(m, 0.0) for m in METRIC_NAMES])


#: Illustrative system archetypes used by examples and tests. The
#: absolute scales are arbitrary; only the *ratios* matter for ranking.
ARCHETYPES: dict[str, SystemModel] = {
    # Message-passing distributed engine: network-dominated.
    "sync-distributed": SystemModel(
        "sync-distributed",
        weights={"updt": 1.0, "work": 2e7, "eread": 0.5, "msg": 6.0},
        overhead=0.05,
    ),
    # Shared-memory multicore engine: compute-dominated, cheap messages.
    "shared-memory": SystemModel(
        "shared-memory",
        weights={"updt": 0.5, "work": 8e7, "eread": 0.8, "msg": 0.2},
        overhead=0.01,
    ),
    # Out-of-core single machine: edge traffic is I/O.
    "out-of-core": SystemModel(
        "out-of-core",
        weights={"updt": 0.2, "work": 1e7, "eread": 8.0, "msg": 0.5},
        overhead=0.02,
    ),
}


def predict_cost(model: SystemModel, metrics: BehaviorMetrics,
                 *, n_iterations: int | None = None) -> float:
    """Predicted cost of one run under a system model.

    Uses the run's mean per-iteration behavior times its iteration
    count (taken from ``metrics.n_iterations`` unless overridden).
    """
    iters = metrics.n_iterations if n_iterations is None else n_iterations
    if iters < 1:
        raise ValidationError("n_iterations must be >= 1")
    per_iter = (float(model.weight_vector() @ metrics.as_array())
                + model.overhead)
    return per_iter * iters


def predict_ensemble_cost(model: SystemModel,
                          metrics: "list[BehaviorMetrics]") -> float:
    """Total predicted cost of running a whole ensemble on a system."""
    if not metrics:
        raise ValidationError("empty ensemble")
    return float(sum(predict_cost(model, m) for m in metrics))


def fit_system_model(
    name: str,
    metrics: "list[BehaviorMetrics]",
    costs: "list[float] | np.ndarray",
) -> SystemModel:
    """Calibrate a system model from observed run costs.

    Solves the non-negative least-squares problem
    ``min ||A w − cost/iters||`` where ``A`` stacks the runs' behavior
    vectors (plus a constant column for the overhead term).

    Parameters
    ----------
    metrics:
        Behavior metrics of the profiled runs.
    costs:
        Total observed cost per run (same units you want predictions in).
    """
    if len(metrics) != len(costs):
        raise ValidationError("metrics and costs must align")
    if len(metrics) < len(METRIC_NAMES) + 1:
        raise ValidationError(
            f"need at least {len(METRIC_NAMES) + 1} observations to fit "
            f"{len(METRIC_NAMES)} weights + overhead"
        )
    A = np.vstack([np.concatenate([m.as_array(), [1.0]]) for m in metrics])
    y = np.asarray(costs, dtype=np.float64) / np.asarray(
        [m.n_iterations for m in metrics], dtype=np.float64)
    # Column scaling keeps NNLS well-conditioned (WORK is ~1e-9 scale).
    scale = np.maximum(np.abs(A).max(axis=0), 1e-30)
    w_scaled, _residual = scipy.optimize.nnls(A / scale, y)
    w = w_scaled / scale
    return SystemModel(
        name=name,
        weights={m: float(w[i]) for i, m in enumerate(METRIC_NAMES)},
        overhead=float(w[-1]),
    )
