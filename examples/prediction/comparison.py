"""System comparisons over ensembles — the paper's finding (1), made
mechanical.

"An ensemble drawn from a single algorithm or a single graph may
unfairly characterize a graph-processing system": with two system cost
models, :func:`compare_systems` scores both over an ensemble and
reports the winner per run and overall. Running it over single-
algorithm ensembles exhibits the conflicting-conclusions phenomenon of
the paper's Table 1 — different narrow ensembles crown different
winners — while high-coverage ensembles produce a stable verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.errors import ValidationError
from repro.behavior.metrics import BehaviorMetrics
from .cost_model import SystemModel, predict_cost


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two systems over one ensemble."""

    system_a: str
    system_b: str
    #: Per-run (tag, cost_a, cost_b) rows.
    rows: tuple
    wins_a: int
    wins_b: int
    total_cost_a: float
    total_cost_b: float

    @property
    def overall_winner(self) -> str:
        if self.total_cost_a == self.total_cost_b:
            return "tie"
        return (self.system_a if self.total_cost_a < self.total_cost_b
                else self.system_b)

    @property
    def split_decision(self) -> bool:
        """True when each system wins some runs — the regime where
        ensemble choice decides the published conclusion."""
        return self.wins_a > 0 and self.wins_b > 0

    def summary(self) -> str:
        lines = [
            f"{self.system_a} vs {self.system_b}: "
            f"{self.wins_a}-{self.wins_b} by runs; totals "
            f"{self.total_cost_a:.3g} vs {self.total_cost_b:.3g} "
            f"→ overall winner: {self.overall_winner}",
        ]
        for tag, ca, cb in self.rows:
            mark = "<" if ca < cb else ">"
            lines.append(f"  {str(tag):<40} {ca:>10.3g} {mark} {cb:<10.3g}")
        return "\n".join(lines)


def compare_systems(
    model_a: SystemModel,
    model_b: SystemModel,
    metrics: "list[BehaviorMetrics]",
    tags: "list | None" = None,
) -> ComparisonReport:
    """Score two system models over an ensemble of runs.

    Parameters
    ----------
    metrics:
        Raw behavior metrics of the ensemble's runs (per-edge,
        un-normalized — cost models are corpus-independent).
    tags:
        Optional run identities for the report rows.
    """
    if not metrics:
        raise ValidationError("empty ensemble")
    if tags is not None and len(tags) != len(metrics):
        raise ValidationError("tags must align with metrics")
    rows = []
    wins_a = wins_b = 0
    total_a = total_b = 0.0
    for i, m in enumerate(metrics):
        ca = predict_cost(model_a, m)
        cb = predict_cost(model_b, m)
        total_a += ca
        total_b += cb
        if ca < cb:
            wins_a += 1
        elif cb < ca:
            wins_b += 1
        rows.append((tags[i] if tags is not None else i, ca, cb))
    return ComparisonReport(
        system_a=model_a.name,
        system_b=model_b.name,
        rows=tuple(rows),
        wins_a=wins_a,
        wins_b=wins_b,
        total_cost_a=total_a,
        total_cost_b=total_b,
    )
