"""Behavior-based performance prediction (paper Section 7, future work).

"Can we model precisely a graph computation's behavior, and predict its
performance?" — this package takes the step the paper sketches: a
graph-processing *system* is modeled by how much each unit of behavior
costs it (per vertex update, per unit apply work, per edge read, per
message), so a run's predicted cost is a dot product with its behavior
metrics. Comparing two system models over an ensemble then reproduces
the paper's finding (1) mechanically: on narrow ensembles the predicted
winner flips with the ensemble choice, while behavior-diverse ensembles
rank systems stably.
"""

from .cost_model import (
    SystemModel,
    fit_system_model,
    predict_cost,
    predict_ensemble_cost,
)
from .comparison import ComparisonReport, compare_systems

__all__ = [
    "ComparisonReport",
    "SystemModel",
    "compare_systems",
    "fit_system_model",
    "predict_cost",
    "predict_ensemble_cost",
]
