"""Ensemble analysis: spread, coverage, best-ensemble search, and
complexity-constrained benchmark design (paper Section 5)."""

from repro.ensemble.bounds import (
    UpperBounds,
    max_coverage_points,
    max_spread_points,
)
from repro.ensemble.budgets import (
    REPORT_SAMPLES,
    SEARCH_SAMPLES,
    WIDE_SEARCH_SAMPLES,
)
from repro.ensemble.constrained import (
    limit_to_algorithms,
    limit_to_structures,
    truncate_trace,
)
from repro.ensemble.ensemble import Ensemble
from repro.ensemble.fast import FastEngine
from repro.ensemble.frequency import algorithm_frequencies
from repro.ensemble.metrics import coverage, mean_min_distance, spread
from repro.ensemble.search import (
    best_ensemble,
    best_ensemble_curve,
    best_subset,
    top_k_ensembles,
)

__all__ = [
    "Ensemble",
    "FastEngine",
    "REPORT_SAMPLES",
    "SEARCH_SAMPLES",
    "UpperBounds",
    "WIDE_SEARCH_SAMPLES",
    "algorithm_frequencies",
    "best_ensemble",
    "best_ensemble_curve",
    "best_subset",
    "coverage",
    "limit_to_algorithms",
    "limit_to_structures",
    "max_coverage_points",
    "max_spread_points",
    "mean_min_distance",
    "spread",
    "top_k_ensembles",
    "truncate_trace",
]
