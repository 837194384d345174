"""Behavior counters for one GAS iteration.

These are the raw observations behind the paper's five metrics
(Section 3.4):

- ``active`` — active vertices at iteration start (active fraction);
- ``updates`` — vertex updates, i.e. apply calls (UPDT);
- ``edge_reads`` — edges whose data was collected in Gather (EREAD);
- ``messages`` — signals delivered in Scatter (MSG);
- ``work`` — apply-phase cost (WORK), in seconds under the ``measured``
  model or abstract units under the deterministic ``unit`` model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util.errors import ValidationError


@dataclass
class Counters:
    """Mutable counter block the engine fills during one iteration."""

    active: int = 0
    updates: int = 0
    edge_reads: int = 0
    messages: int = 0
    work: float = 0.0

    def merge(self, other: "Counters") -> None:
        """Fold another counter block into this one (used by phased
        algorithms that run sub-sweeps inside one logical iteration).

        ``active`` is **max-merged**: it gauges a population (how many
        vertices participated this iteration), and a vertex active in
        several sub-sweeps is still one active vertex — summing would
        double-count it. Every other field measures *flow* (events
        that happened) and **sums**; see docs/metrics.md. Both
        operations are associative and commutative, so merge order
        never changes the result."""
        self.active = max(self.active, other.active)
        self.updates += other.updates
        self.edge_reads += other.edge_reads
        self.messages += other.messages
        self.work += other.work


#: Scale applied to unit-model WORK so magnitudes resemble seconds;
#: what ``GASEngine._unit_work`` multiplies by.
UNIT_SCALE = 1e-9


@dataclass
class WorkModel:
    """How the WORK metric is produced.

    ``measured``
        Wall-clock time of the apply phase (paper-faithful; used by the
        benchmark harness).
    ``unit``
        Deterministic cost model: ``flops_per_vertex * |apply set| +
        program-reported extra work`` — bit-reproducible, used by tests
        and for cross-machine comparability, scaled by
        :data:`UNIT_SCALE`.
    """

    kind: str = "unit"

    VALID: tuple = ("measured", "unit")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID:
            raise ValidationError(
                f"work model must be one of {self.VALID}, got {self.kind!r}")
