"""Behavior characterization: run traces, the five metrics, and the
4-D behavior vector space of paper Section 5.1."""

from repro.behavior.metrics import (
    METRIC_NAMES,
    BehaviorMetrics,
    active_fraction_series,
    compute_metrics,
)
from repro.behavior.diff import TraceDiff, diff_traces
from repro.behavior.run import GraphComputation, run_computation
from repro.behavior.shapes import (
    ActivityShape,
    classify_activity_shape,
    shape_profile,
)
from repro.behavior.space import (
    BehaviorSpace,
    BehaviorVector,
    normalize_corpus,
)
from repro.behavior.temporal import (
    TemporalBehavior,
    compute_temporal_behavior,
    normalize_temporal_corpus,
    temporal_corpus,
)
from repro.behavior.trace import IterationRecord, RunTrace
from repro.behavior.validate import ENGINE_NAMES, validate_trace

__all__ = [
    "ENGINE_NAMES",
    "validate_trace",
    "ActivityShape",
    "TemporalBehavior",
    "TraceDiff",
    "diff_traces",
    "classify_activity_shape",
    "compute_temporal_behavior",
    "normalize_temporal_corpus",
    "shape_profile",
    "temporal_corpus",
    "METRIC_NAMES",
    "BehaviorMetrics",
    "BehaviorSpace",
    "BehaviorVector",
    "GraphComputation",
    "IterationRecord",
    "RunTrace",
    "active_fraction_series",
    "compute_metrics",
    "normalize_corpus",
    "run_computation",
]
