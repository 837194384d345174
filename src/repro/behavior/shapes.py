"""Active-fraction shape classification.

Section 4 of the paper describes algorithms by the *shape* of their
active-fraction curves: AD and KM "always activate all vertices", LBP
shows "a sharp drop", PageRank "gradually decreases", SSSP "grows
rapidly" from one vertex, and KC bursts as peeling phases restart. This
module turns those descriptions into a small, testable taxonomy so
shape claims in the benchmarks (and user analyses) are computed, not
eyeballed.
"""

from __future__ import annotations

import enum

import numpy as np

from repro._util.errors import ValidationError
from repro.behavior.trace import RunTrace


class ActivityShape(enum.Enum):
    """Taxonomy of active-fraction lifecycles."""

    #: Active fraction pinned at (almost) 1.0 throughout — AD, KM,
    #: NMF, SGD, SVD, Jacobi, DD.
    ALWAYS_ACTIVE = "always-active"
    #: Starts full and collapses within the first quarter — LBP.
    SHARP_DROP = "sharp-drop"
    #: Starts full and declines gradually — PageRank, CC.
    GRADUAL_DECAY = "gradual-decay"
    #: Starts near zero, peaks, then drains — SSSP frontier growth.
    GROW_PEAK_DRAIN = "grow-peak-drain"
    #: Repeated activity bursts (non-monotone after the peak) — KC's
    #: peeling phases.
    BURSTY = "bursty"
    #: Anything else (very short or irregular runs).
    IRREGULAR = "irregular"


#: Tolerance for "fully active".
_FULL = 0.995
#: Relative prominence a re-activation burst needs to count.
_BURST_PROMINENCE = 0.05


def classify_activity_shape(
        trace_or_series: "RunTrace | np.ndarray") -> ActivityShape:
    """Classify an active-fraction lifecycle into the taxonomy.

    Accepts a :class:`~repro.behavior.trace.RunTrace` or a raw
    active-fraction series.
    """
    if isinstance(trace_or_series, RunTrace):
        series = trace_or_series.active_fraction()
    else:
        series = np.asarray(trace_or_series, dtype=np.float64)
    if series.ndim != 1 or series.size == 0:
        raise ValidationError("need a non-empty 1-D active-fraction series")
    if series.min() < -1e-9 or series.max() > 1 + 1e-9:
        raise ValidationError("active fractions must lie in [0, 1]")

    if np.all(series >= _FULL):
        return ActivityShape.ALWAYS_ACTIVE
    if series.size < 3:
        return ActivityShape.IRREGULAR

    peak_idx = int(np.argmax(series))
    peak = series[peak_idx]

    # Count re-activation bursts: local rises after the global peak.
    diffs = np.diff(series)
    bursts = int(np.sum(diffs[peak_idx:] > _BURST_PROMINENCE))

    starts_full = series[0] >= _FULL
    if starts_full:
        if bursts >= 2:
            return ActivityShape.BURSTY
        quarter = max(1, series.size // 4)
        if series[quarter] <= 0.5:
            return ActivityShape.SHARP_DROP
        if series[-1] < series[0]:
            return ActivityShape.GRADUAL_DECAY
        return ActivityShape.IRREGULAR

    if series[0] < 0.5 * peak and peak_idx > 0:
        if bursts >= 2:
            return ActivityShape.BURSTY
        return ActivityShape.GROW_PEAK_DRAIN
    return ActivityShape.IRREGULAR


def shape_profile(traces: "list[RunTrace]") -> dict[str, ActivityShape]:
    """Dominant shape per algorithm over a collection of traces.

    Ties break toward the most frequent shape; the result maps
    algorithm name → its characteristic shape, the paper's per-
    algorithm signature.
    """
    from collections import Counter, defaultdict

    by_alg: dict[str, Counter] = defaultdict(Counter)
    for trace in traces:
        by_alg[trace.algorithm][classify_activity_shape(trace)] += 1
    return {alg: counts.most_common(1)[0][0]
            for alg, counts in sorted(by_alg.items())}
