"""Trace diffing: structured comparison of two run traces.

Used when validating one execution policy against another (sync vs
edge-centric vs graph-centric vs async), when debugging an algorithm
change, or when checking corpus cache integrity. Produces a typed
report instead of a bare boolean so callers can see *where* traces
diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.behavior.trace import RunTrace

#: Counter fields compared per iteration.
COUNTER_FIELDS = ("active", "updates", "edge_reads", "messages")


@dataclass(frozen=True)
class TraceDiff:
    """Differences between two traces.

    Empty ``mismatches`` + equal iteration counts + matching work
    (within tolerance) means the traces are behaviorally identical.
    """

    algorithm_a: str
    algorithm_b: str
    n_iterations: tuple[int, int]
    #: (iteration, field, value_a, value_b) rows, counter fields only.
    mismatches: tuple = ()
    #: Max relative WORK deviation across common iterations.
    max_work_rel_diff: float = 0.0
    #: Stop reasons of both traces.
    stop_reasons: tuple[str, str] = ("", "")

    @property
    def identical(self) -> bool:
        return (not self.mismatches
                and self.n_iterations[0] == self.n_iterations[1]
                and self.max_work_rel_diff < 1e-9)

    @property
    def counters_conserved(self) -> bool:
        """Counter equality on common iterations, ignoring WORK and
        iteration-count differences (the §3.3 conservation notion)."""
        return not self.mismatches

    def summary(self) -> str:
        if self.identical:
            return (f"{self.algorithm_a} traces identical "
                    f"({self.n_iterations[0]} iterations)")
        lines = [
            f"{self.algorithm_a} vs {self.algorithm_b}: "
            f"iterations {self.n_iterations[0]} vs {self.n_iterations[1]}, "
            f"max WORK rel. diff {self.max_work_rel_diff:.2g}",
        ]
        for iteration, fld, a, b in self.mismatches[:20]:
            lines.append(f"  iter {iteration}: {fld} {a} != {b}")
        if len(self.mismatches) > 20:
            lines.append(f"  ... {len(self.mismatches) - 20} more")
        return "\n".join(lines)


def diff_traces(a: RunTrace, b: RunTrace) -> TraceDiff:
    """Compare two traces counter-for-counter over common iterations."""
    mismatches = []
    max_work = 0.0
    for rec_a, rec_b in zip(a.iterations, b.iterations):
        for fld in COUNTER_FIELDS:
            va, vb = getattr(rec_a, fld), getattr(rec_b, fld)
            if va != vb:
                mismatches.append((rec_a.iteration, fld, va, vb))
        denom = max(abs(rec_a.work), abs(rec_b.work), 1e-300)
        max_work = max(max_work, abs(rec_a.work - rec_b.work) / denom)
    return TraceDiff(
        algorithm_a=a.algorithm,
        algorithm_b=b.algorithm,
        n_iterations=(a.n_iterations, b.n_iterations),
        mismatches=tuple(mismatches),
        max_work_rel_diff=max_work,
        stop_reasons=(a.stop_reason, b.stop_reason),
    )
