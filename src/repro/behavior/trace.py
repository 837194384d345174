"""Run traces: the per-iteration observation record of one graph computation.

A :class:`RunTrace` is the engine's output and the input to everything
in :mod:`repro.behavior` and :mod:`repro.ensemble`. It is pure data —
JSON-serializable so the experiment harness can cache the 215-run
corpus on disk.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro._util.errors import ValidationError


#: The integer fields of an :class:`IterationRecord`.
_COUNTERS = ("iteration", "active", "updates", "edge_reads", "messages")


@dataclass(frozen=True)
class IterationRecord:
    """Counters of one synchronous GAS iteration (see Section 3.4)."""

    iteration: int
    active: int
    updates: int
    edge_reads: int
    messages: int
    work: float


@dataclass
class RunTrace:
    """Complete record of one graph computation ``GC = <algorithm, graph>``.

    Attributes
    ----------
    algorithm:
        Registry name of the vertex program.
    graph_params:
        Generator parameters of the input (nedges, alpha, nrows, seed).
    domain:
        Application domain of the input.
    n_vertices, n_edges:
        Size of the input graph (logical edges).
    iterations:
        One :class:`IterationRecord` per GAS iteration, in order.
    converged:
        True if the run reached its convergence condition (as opposed to
        the iteration cap or an error).
    stop_reason:
        ``"converged"``, ``"frontier-empty"``, ``"max-iterations"``, ...
    result:
        Algorithm-specific output summary.
    work_model:
        ``"measured"`` or ``"unit"`` — how WORK was produced.
    wall_time_s:
        Total wall-clock time of the run.
    engine:
        Which engine produced the trace (``"synchronous"``,
        ``"asynchronous"``, ``"edge-centric"``, ``"graph-centric"``);
        trace invariants are engine-specific (see
        :func:`repro.behavior.validate.validate_trace`).
    degraded:
        True if a convergence watchdog or numeric guard stopped the run
        early under the ``degrade`` health policy; the trace is then a
        flagged *partial* observation (and is excluded from ensemble
        search).
    health:
        The health verdict for degraded runs — ``condition``
        (stall/oscillation/divergence/numeric), ``iteration``,
        ``detail``, ``policy``. Empty for healthy runs.
    meta:
        Harness metadata about how the run was executed (e.g.
        ``timeout_enforced``); never part of behavior analysis.
    """

    algorithm: str
    graph_params: dict[str, Any]
    domain: str
    n_vertices: int
    n_edges: int
    iterations: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    result: dict[str, Any] = field(default_factory=dict)
    work_model: str = "unit"
    wall_time_s: float = 0.0
    engine: str = "synchronous"
    degraded: bool = False
    health: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def series(self, name: str) -> np.ndarray:
        """Per-iteration series of one counter (``active``, ``updates``,
        ``edge_reads``, ``messages``, ``work``)."""
        if not self.iterations:
            return np.empty(0)
        try:
            return np.asarray([getattr(rec, name) for rec in self.iterations],
                              dtype=np.float64)
        except AttributeError as exc:
            raise ValidationError(f"unknown counter series {name!r}") from exc

    def active_fraction(self) -> np.ndarray:
        """Active fraction per iteration (paper metric 1)."""
        if self.n_vertices == 0:
            return np.empty(0)
        return self.series("active") / self.n_vertices

    def mean(self, name: str) -> float:
        """Mean of a counter over iterations (0.0 for empty runs)."""
        s = self.series(name)
        return float(s.mean()) if s.size else 0.0

    @property
    def label(self) -> str:
        """Short identity like ``pagerank@ga(nedges=1e+04, α=2.5)``."""
        bits = []
        for key in ("nedges", "alpha", "nrows"):
            if key in self.graph_params:
                value = self.graph_params[key]
                if key == "alpha":
                    bits.append(f"α={value}")
                else:
                    bits.append(f"{key}={value:g}")
        return f"{self.algorithm}@{self.domain}({', '.join(bits)})"

    def summary(self) -> str:
        """Human-readable one-paragraph summary of the run."""
        lines = [
            f"{self.label}: |V|={self.n_vertices:,} |E|={self.n_edges:,}",
            f"  iterations={self.n_iterations} stop={self.stop_reason} "
            f"converged={self.converged}",
            f"  mean/iter: active={self.mean('active'):.1f} "
            f"updates={self.mean('updates'):.1f} "
            f"edge_reads={self.mean('edge_reads'):.1f} "
            f"messages={self.mean('messages'):.1f} "
            f"work={self.mean('work'):.3g} ({self.work_model})",
        ]
        if self.degraded:
            lines.append(
                f"  DEGRADED: {self.health.get('condition', '?')} at "
                f"iteration {self.health.get('iteration', '?')} — "
                f"{self.health.get('detail', '')}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = asdict(self)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunTrace":
        """Build from :meth:`to_dict`'s shape. ``data`` is read from
        files other processes write, so beside the key names (a
        :class:`TypeError`) the types every reduction computes on are
        checked: a wrong one is a :class:`ValidationError` here, not an
        arithmetic error in whoever first touches the trace."""
        data = dict(data)
        records = data.get("iterations", [])
        if not isinstance(records, list):
            raise ValidationError("iterations is not a list of records")
        data["iterations"] = [IterationRecord(**rec) for rec in records]
        trace = cls(**data)
        for name in ("n_vertices", "n_edges"):
            if type(getattr(trace, name)) is not int:
                raise ValidationError(f"{name} is not an integer")
        for rec in trace.iterations:
            for name in _COUNTERS:
                value = getattr(rec, name)
                if type(value) is not int or value < 0:
                    raise ValidationError(
                        f"iteration record {rec.iteration!r}: {name} is "
                        f"{value!r}, not a non-negative integer")
            if type(rec.work) not in (int, float) or not math.isfinite(
                    rec.work):
                raise ValidationError(
                    f"iteration record {rec.iteration}: work is "
                    f"{rec.work!r}, not a finite number")
        return trace

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=None, sort_keys=True)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "RunTrace":
        """Load from a JSON string or a path to a JSON file."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source
        return cls.from_dict(json.loads(text))
