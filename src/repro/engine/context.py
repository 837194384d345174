"""Execution context handed to vertex programs.

One :class:`Context` lives for the duration of a run. It exposes the
problem instance, a deterministic RNG, the iteration number, and the
work ledger programs use to report data-dependent apply cost under the
unit work model.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._util.errors import ValidationError
from repro.generators.problem import ProblemInstance
from repro.generators.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import Graph


class Context:
    """Run-scoped services for a vertex program.

    Attributes
    ----------
    problem:
        The :class:`~repro.generators.problem.ProblemInstance` being
        computed on.
    graph:
        Shortcut for ``problem.graph``.
    iteration:
        0-based index of the current GAS iteration.
    params:
        Algorithm parameters (tolerances, k, damping, ...), merged from
        program defaults and run overrides.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        *,
        params: dict[str, Any] | None = None,
        seed: int = 0,
    ) -> None:
        self.problem = problem
        self.iteration: int = 0
        # Deep copy: programs may mutate params (including nested
        # containers), and the caller's dict is typically the long-lived
        # EngineOptions.params reused across retries and runs — a
        # shallow copy would leak one run's mutations into the next.
        self.params: dict[str, Any] = copy.deepcopy(dict(params or {}))
        self._seed = int(seed)
        self.rng = make_rng(seed, "run")
        self._extra_work: float = 0.0

    @property
    def graph(self) -> "Graph":
        return self.problem.graph

    @property
    def n_vertices(self) -> int:
        return self.problem.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return self.problem.graph.n_edges

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def param(self, key: str, default: Any = None) -> Any:
        """Fetch an algorithm parameter with a default."""
        return self.params.get(key, default)

    def require_param(self, key: str) -> Any:
        if key not in self.params:
            raise ValidationError(
                f"missing required algorithm parameter {key!r}")
        return self.params[key]

    # ------------------------------------------------------------------
    # Unit work ledger
    # ------------------------------------------------------------------
    def add_work(self, units: float) -> None:
        """Report data-dependent apply work (unit work model only).

        Programs whose apply cost is not proportional to the vertex
        count (e.g. Triangle Counting's intersections, ALS's k×k solves)
        call this inside ``apply``; the engine adds it to the iteration's
        WORK under the ``unit`` model. Ignored under ``measured``.
        """
        if units < 0:
            raise ValidationError("work units must be non-negative")
        self._extra_work += float(units)

    def drain_extra_work(self) -> float:
        """Engine-internal: collect and reset reported work."""
        units, self._extra_work = self._extra_work, 0.0
        return units

    # ------------------------------------------------------------------
    # Frontier helpers
    # ------------------------------------------------------------------
    def all_vertices(self) -> np.ndarray:
        """Convenience: the full vertex id range (for always-active
        programs)."""
        return np.arange(self.n_vertices, dtype=np.int64)
