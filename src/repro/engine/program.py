"""The vertex-program abstraction executed by the GAS engine.

A :class:`VertexProgram` holds the per-vertex (and per-edge) state of
one algorithm run and implements the three GAS phases as *array-level*
callbacks: the engine hands it arrays of vertices/edges, never single
scalars. This one API serves every caller — the synchronous engine
passes the whole frontier, the asynchronous engine and the test
suite's vertex-at-a-time oracle pass length-1 slices — so every
algorithm is written exactly once.

Phase contracts (synchronous semantics)
---------------------------------------
``gather_edge``
    Must be a pure function of *pre-iteration* vertex/edge state. Called
    before any ``apply`` of the same iteration.
``apply``
    May mutate only the state of the vertices in ``vids`` (plus global
    aggregates). Must not read other frontier vertices' *new* values —
    the engine does not order applies.
``scatter_edges``
    Runs after every apply of the iteration; sees post-apply state. May
    mutate per-edge state. Returns the boolean signal mask that defines
    both the MSG counter and the next frontier.

The ``nbr`` / ``center`` / ``eid`` arrays a callback receives are
inputs: on a step over every vertex they are the graph's own read-only
adjacency arrays, and writing to one raises.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.context import Context


class Direction(enum.Enum):
    """Which adjacency a phase traverses.

    For undirected graphs the stored adjacency is symmetric, so ``IN``
    and ``OUT`` are the same neighbor set and ``BOTH`` is rejected (it
    would double-count every edge).
    """

    IN = "in"
    OUT = "out"
    BOTH = "both"
    NONE = "none"


class VertexProgram(ABC):
    """Base class for all fourteen algorithms (and user-defined ones).

    Subclasses set the class attributes to describe their shape and
    implement the phase callbacks. State arrays are allocated in
    :meth:`init` and live on the instance; a program instance is
    single-use (one run).
    """

    #: Registry/display name, e.g. ``"pagerank"``.
    name: ClassVar[str] = "abstract"
    #: Application domain the program consumes (see generators).
    domain: ClassVar[str] = "ga"

    #: Adjacency traversed by Gather; ``NONE`` skips the phase.
    gather_dir: ClassVar[Direction] = Direction.IN
    #: Adjacency traversed by Scatter; ``NONE`` skips the phase.
    scatter_dir: ClassVar[Direction] = Direction.OUT
    #: Reduction combining per-edge gather contributions:
    #: ``sum``/``min``/``max`` on floats or ``or`` (bitwise) on integers.
    gather_op: ClassVar[str] = "sum"
    #: Columns of each gather contribution row (1 for scalar gathers).
    gather_width: ClassVar[int] = 1
    #: dtype of gather contributions (float64 for numeric reductions,
    #: an unsigned integer type for bitwise ``or``).
    gather_dtype: ClassVar[type] = np.float64

    #: Unit-work-model coefficients: cost of one apply call is
    #: ``flops_per_vertex * |vids| + extra work reported via ctx.add_work``.
    apply_flops_per_vertex: ClassVar[float] = 1.0

    # -- fused-kernel declarations (DESIGN §13) ------------------------
    #: Declares that ``gather_edge`` is a pure reduction shape over a
    #: per-vertex source vector, enabling the engines' fused dense CSR
    #: kernels. ``None`` (default) keeps the callback path. Recognized
    #: shapes (``u`` = neighbor, ``e`` = edge id, ``w`` = edge weight):
    #: ``"vertex"`` → ``source[u]``; ``"vertex_plus_edge"`` →
    #: ``source[u] + w[e]``; ``"vertex_times_edge"`` → ``w[e] *
    #: source[u]``. Declaring a shape obliges ``gather_source`` to
    #: return values bit-identical to what ``gather_edge`` computes.
    gather_shape: ClassVar["str | None"] = None
    #: ``"center"`` declares that ``scatter_edges`` depends only on the
    #: center vertex (the mask is constant across one vertex's edges),
    #: enabling the fused scatter via ``scatter_vertex_mask``. ``None``
    #: (default) keeps the callback path.
    scatter_shape: ClassVar["str | None"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def init(self, ctx: "Context") -> np.ndarray:
        """Allocate state and return the initial frontier (vertex ids).

        Returned array need not be sorted or unique; the engine
        canonicalizes it.
        """

    def state_bytes(self, ctx: "Context") -> int:
        """Estimated bytes of per-vertex/per-edge state this program will
        allocate. Used for the engine's memory budget check (the
        mechanism behind the paper's failed AD runs)."""
        return 0

    # ------------------------------------------------------------------
    # GAS phases
    # ------------------------------------------------------------------
    def gather_edge(
        self,
        ctx: "Context",
        nbr: np.ndarray,
        center: np.ndarray,
        eid: np.ndarray,
    ) -> np.ndarray:
        """Per-edge contribution to the gather accumulator.

        Parameters
        ----------
        nbr:
            The neighbor endpoint of each gathered edge (the vertex
            whose data is being *read* — one edge read each).
        center:
            The gathering vertex of each edge (repeated per edge).
        eid:
            Logical edge ids (indexes edge weights/state).

        Returns
        -------
        np.ndarray
            Shape ``(len(nbr),)`` if ``gather_width == 1`` else
            ``(len(nbr), gather_width)``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares gather_dir={self.gather_dir} "
            "but does not implement gather_edge"
        )

    def gather_source(self, ctx: "Context") -> np.ndarray:
        """Per-vertex source vector of a declared ``gather_shape``.

        Returns a float64 array of shape ``(n_vertices,)`` such that
        indexing it by the neighbor array reproduces, bit for bit, the
        contributions ``gather_edge`` would return for the same slots
        (e.g. PageRank returns ``rank * inv_degree`` because
        ``(a*b)[u] == a[u]*b[u]`` in float64). Only called when
        ``gather_shape`` is declared.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares "
            f"gather_shape={self.gather_shape!r} but does not implement "
            "gather_source"
        )

    def scatter_vertex_mask(self, ctx: "Context",
                            vids: np.ndarray) -> np.ndarray:
        """Per-*vertex* signal mask of a declared ``"center"`` scatter.

        Returns a boolean array aligned with ``vids``; vertex ``v``
        signals along **all** of its scatter edges iff its entry is
        True — exactly the mask ``scatter_edges`` would repeat per
        edge. Only called when ``scatter_shape == "center"``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares "
            f"scatter_shape={self.scatter_shape!r} but does not implement "
            "scatter_vertex_mask"
        )

    @abstractmethod
    def apply(self, ctx: "Context", vids: np.ndarray,
              acc: np.ndarray | None) -> None:
        """Update the state of vertices ``vids`` given gather results.

        ``acc`` is ``None`` when ``gather_dir == Direction.NONE``;
        otherwise rows align with ``vids`` and empty gather sets hold the
        reduction identity (``0``/``inf``/``-inf``).
        """

    def scatter_edges(
        self,
        ctx: "Context",
        center: np.ndarray,
        nbr: np.ndarray,
        eid: np.ndarray,
    ) -> np.ndarray:
        """Return the boolean mask of edges that deliver a signal.

        ``center`` is the scattering (just-applied) vertex of each
        candidate edge, ``nbr`` the potential recipient. Default: signal
        nothing (programs with ``scatter_dir == NONE`` never get called).
        """
        return np.zeros(center.shape[0], dtype=bool)

    # ------------------------------------------------------------------
    # Control hooks
    # ------------------------------------------------------------------
    def select_next_frontier(
        self, ctx: "Context", signaled: np.ndarray
    ) -> np.ndarray:
        """Map signaled vertices to the next frontier.

        Default: exactly the signaled set (paper Section 3.3: "Only
        vertices that receive messages can be active in the next
        iteration"). Always-active algorithms (AD, KM, Jacobi, DD, ...)
        override this to return all vertices.
        """
        return signaled

    def converged(self, ctx: "Context") -> bool:
        """Global convergence predicate checked after each iteration."""
        return False

    def on_iteration_end(self, ctx: "Context") -> None:
        """Hook after scatter — update global aggregates, phase counters."""

    def result(self, ctx: "Context") -> dict:
        """Algorithm output summary recorded into the run trace."""
        return {}
