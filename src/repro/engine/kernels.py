"""The one kernel layer: how a program's gather, scatter and stream are
evaluated (DESIGN §13).

Paper §3.3: every execution model conserves "transferring information
through edges, performing computation on an independent unit, and
activations". :class:`Kernels` is the first and the last of those for
all four engines — one object per run, and the only code that calls
``gather_edge`` / ``scatter_edges``. Gather and scatter each have two
evaluations (the edge-centric stream has the first only):

* the **callback path**: hand the ``(nbr, center, eid)`` triples of
  the vertices' adjacency slots to the program's callback, check the
  shape of what came back, reduce per vertex (``segmented_reduce``) or
  read the signal mask. A partial frontier's slots are sliced out
  (``concat_ranges``); the full frontier's are the adjacency arrays
  themselves, read-only, with the slot-centre and count arrays built
  once per run (:meth:`_Side.edges`);
* the **fused path**, for the *recognized reduction shapes* a
  :class:`~repro.engine.program.VertexProgram` declares
  (``gather_shape`` / ``scatter_shape``): one dense CSR segment kernel
  over the whole graph — a pull-mode sparse-matrix-vector product,
  which is what the GAP benchmark's direction-optimizing traversal does.

The fused path runs in one place: the synchronous engine's pull step,
which passes ``dense`` when the frontier's active fraction makes the
whole-graph kernel pay (``engine/engine.py``). Every other caller —
the edge-centric stream, the graph-centric sweeps, the asynchronous
single-vertex steps — is the callback path; an engine never tests what
the program declared.

Bit-identity contract
---------------------
Fused kernels must be *bit-identical* to the callback path: same
accumulator bits, same frontier sequences, same counters. Every float
reducer here and in ``_util/segments.py`` is ``np.ufunc.reduceat``, so
they agree with each other — in an order NumPy owns, which is *not*
left to right (on NumPy 2.4 a segment's sum is its first element plus
a pairwise sum of the rest). That rules ``np.sum`` and scipy out of
the general gather — each associates differently and float addition is
not associative — so the dense gather reduces with ``reduceat`` over
cached full-graph offsets, the per-row call the callback path makes.
``tests/test_segments.py::TestReduceatContract`` pins it. Two fused
evaluations sum only 0s and 1s, which every order sums to the same
float64 bits, and so take faster kernels: the ``count`` gather is one
``np.bincount`` histogram, and the scatter's "who got signaled" is a
scipy SpMV of a 0/1 indicator (``Graph.spmv_ones``; ``scipy.sparse``
is imported there, and ahead of the engine clock by
``run_computation`` and the worker crew).

Counters are *model* counters, not physical traversal counts: a pull
iteration reports the same ``edge_reads``/``messages`` the push
iteration would, because the unit work model describes the logical GAS
work, never the engine's traversal strategy (DESIGN §12). The oracles
for all of this — a vertex-at-a-time engine and a kernels wrapper that
cross-checks every fused phase against the callback path — live in
``tests/engine_oracle.py``.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import (
    REDUCE_IDENTITY,
    REDUCE_UFUNC,
    concat_ranges,
    segmented_reduce,
    sorted_unique_ids,
)
from repro.engine.program import Direction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import Context
    from repro.engine.program import VertexProgram
    from repro.graph.csr import Graph

#: Gather shapes the dense kernels recognize; the per-slot contribution
#: for a slot with neighbor ``u`` and edge id ``e`` is:
#: ``vertex`` → ``source[u]``; ``vertex_plus_edge`` → ``source[u] +
#: weight[e]``; ``vertex_times_edge`` → ``weight[e] * source[u]``;
#: ``count`` → a one-hot row of ``gather_width`` columns with its 1 in
#: column ``source[u]`` (an integer label), summed into a per-vertex
#: label histogram.
GATHER_SHAPES = ("vertex", "vertex_plus_edge", "vertex_times_edge", "count")

#: The float reductions: the ones with a fused dense implementation and
#: the ones the edge-centric stream can scatter-add (``or`` stays on
#: the callback path: no program declares a fusable ``or`` gather).
FUSABLE_OPS = ("sum", "min", "max")

#: reduceat over ``[0]`` reduces one whole block the way
#: ``segmented_reduce`` reduces a single segment — same ufunc method,
#: same order (ufunc ``reduce`` associates differently and changes
#: bits).
_BLOCK_START = np.zeros(1, dtype=np.intp)

_NO_VERTICES = np.empty(0, dtype=np.int64)


def reduce_block(values: np.ndarray, op: str) -> np.ndarray:
    """Reduce one contiguous contribution block, bit-identical to
    ``segmented_reduce(values, [len(values)], op)`` without its
    per-call validation — the async engine's per-step hot path.

    ``values`` must be non-empty; the result keeps shape ``(1,)`` (or
    ``(1, width)``) and follows ``segmented_reduce``'s dtype rule
    (floats widen to float64).
    """
    values = np.asarray(values)
    out = REDUCE_UFUNC[op].reduceat(values, _BLOCK_START, axis=0)
    if values.dtype.kind == "f":
        dtype = np.result_type(values.dtype, np.float64)
        out = out.astype(dtype, copy=False)
    return out


def adjacency(graph: "Graph", direction: Direction):
    """(ptr, other-endpoint, eid) arrays for a traversal direction;
    three Nones for ``Direction.NONE`` (the phase is skipped)."""
    if direction is Direction.NONE:
        return None, None, None
    if direction is Direction.IN:
        return graph.in_ptr, graph.in_src, graph.in_eid
    if direction is Direction.OUT:
        return graph.out_ptr, graph.out_dst, graph.out_eid
    if not graph.directed:
        raise ValidationError(
            "Direction.BOTH on an undirected graph would visit "
            "every edge twice; use IN or OUT")
    raise ValidationError(
        "Direction.BOTH is not supported; gather twice or "
        "symmetrize the graph")


def _side(graph: "Graph", direction: Direction,
          twin: "_Side | None" = None) -> "_Side | None":
    """The direction's side — ``twin`` itself when it already holds
    these arrays, so what it derived from them is built once."""
    ptr, idx, eid = adjacency(graph, direction)
    if ptr is None:
        return None
    if twin is not None and twin.ptr is ptr:
        return twin
    return _Side(ptr, idx, eid)


class _Side:
    """One stored adjacency and the full-graph arrays derived from it,
    each built on first use and kept for the run. A side belongs to
    the arrays, not to a ``Direction``: an undirected graph stores one
    adjacency (``graph/csr.py``), so its gather and scatter share one
    side whatever directions the program names.

    ``ptr[:-1]`` restricted to non-empty rows is a valid ``reduceat``
    index vector: an empty row spans no slots, so the next non-empty
    row starts exactly where the previous one ended. Reducing those
    offsets therefore yields, row for row, the same ``reduceat``
    reduction ``segmented_reduce`` performs — precomputed once per
    run instead of re-deriving cumsums every iteration.
    """

    def __init__(self, ptr: np.ndarray, idx: np.ndarray,
                 eid: np.ndarray) -> None:
        self.ptr, self.idx, self.eid = ptr, idx, eid
        self.n = ptr.size - 1

    @cached_property
    def counts(self) -> np.ndarray:
        """Slots per vertex."""
        counts = np.diff(self.ptr)
        counts.setflags(write=False)
        return counts

    @cached_property
    def slot_center(self) -> np.ndarray:
        """The vertex owning every slot."""
        center = np.repeat(np.arange(self.n, dtype=np.int64), self.counts)
        center.setflags(write=False)
        return center

    def edges(self, vids: np.ndarray):
        """``(nbr, center, eid, counts)`` over the adjacency slots of
        ``vids``, in slot order. ``vids`` must be sorted unique (every
        frontier the engines hold is): one as long as the vertex count
        is then every vertex, and its slots are the adjacency arrays as
        they stand (read-only, like the graph's) — a length-``n``
        ``vids`` with a duplicate would get them too."""
        if vids.size == self.n:
            return self.idx, self.slot_center, self.eid, self.counts
        starts = self.ptr[vids]
        ends = self.ptr[vids + 1]
        counts = ends - starts
        slots = concat_ranges(starts, ends)
        return (self.idx[slots], np.repeat(vids, counts), self.eid[slots],
                counts)

    @cached_property
    def _rows(self):
        """``(ids of the non-empty rows, or None when every row is one;
        their reduceat offsets)``."""
        if self.counts.all():
            return None, self.ptr[:-1]
        rows = np.flatnonzero(self.counts)
        return rows, self.ptr[:-1][rows]

    def reduce(self, values: np.ndarray, op: str) -> np.ndarray:
        """Per-row reduction of per-slot ``values`` over every vertex;
        empty rows hold the reduction identity."""
        if self.idx.size == 0:
            return np.full(self.n, REDUCE_IDENTITY[op], dtype=np.float64)
        rows, offsets = self._rows
        reduced = REDUCE_UFUNC[op].reduceat(values, offsets)
        if rows is None:
            return reduced
        out = np.full(self.n, REDUCE_IDENTITY[op], dtype=values.dtype)
        out[rows] = reduced
        return out


class Kernels:
    """Gather, scatter and stream of one (program, graph) pair.

    Built once per run by the loop. Holds no program *state* — only the
    program, the adjacency it traverses and graph-derived caches (the
    full-frontier arrays of the callback path, the fused path's
    offsets, weights and matrices), built on first use.
    """

    def __init__(self, program: "VertexProgram", graph: "Graph") -> None:
        self.program = program
        self.graph = graph
        self._gather_side = _side(graph, program.gather_dir)
        # One object when both phases traverse the same arrays: the
        # same direction, or any two on an undirected graph.
        self._scatter_side = _side(graph, program.scatter_dir,
                                   self._gather_side)
        shape = getattr(program, "gather_shape", None)
        if shape == "count":
            # One float64 histogram row of gather_width labels.
            fits = program.gather_op == "sum"
        else:
            fits = (program.gather_op in FUSABLE_OPS
                    and program.gather_width == 1
                    # *_edge shapes need per-edge weights
                    and (shape == "vertex"
                         or graph.edge_weight is not None))
        #: The program's gather has a fused dense evaluation.
        self.can_gather = (
            shape in GATHER_SHAPES
            and program.gather_dir is not Direction.NONE
            and program.gather_dtype is np.float64
            and fits
        )
        #: The program's scatter has a fused dense evaluation.
        self.can_scatter = (
            getattr(program, "scatter_shape", None) == "center"
            and program.scatter_dir is not Direction.NONE
        )

    @property
    def fused(self) -> bool:
        """Some phase has a dense evaluation, so pulling can pay."""
        return self.can_gather or self.can_scatter

    # ------------------------------------------------------------------
    # The callbacks, called here and nowhere else
    # ------------------------------------------------------------------
    def _contributions(self, ctx: "Context", nbr: np.ndarray,
                       center: np.ndarray, eid: np.ndarray) -> np.ndarray:
        program = self.program
        values = np.asarray(program.gather_edge(ctx, nbr, center, eid),
                            dtype=program.gather_dtype)
        width = program.gather_width
        expected = (nbr.size,) if width == 1 else (nbr.size, width)
        if values.shape != expected:
            raise ValidationError(
                f"{program.name}.gather_edge returned shape "
                f"{values.shape}, expected {expected}")
        return values

    def _signal_mask(self, ctx: "Context", center: np.ndarray,
                     nbr: np.ndarray, eid: np.ndarray) -> np.ndarray:
        program = self.program
        mask = np.asarray(program.scatter_edges(ctx, center, nbr, eid),
                          dtype=bool)
        if mask.shape != (nbr.size,):
            raise ValidationError(
                f"{program.name}.scatter_edges returned shape "
                f"{mask.shape}, expected ({nbr.size},)")
        return mask

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def gather(self, ctx: "Context", vids: np.ndarray,
               dense: bool = False) -> "tuple[np.ndarray | None, int]":
        """Accumulator rows aligned with ``vids`` and the edges read;
        ``(None, 0)`` for a program that gathers nothing.

        ``dense`` asks for the pull-mode kernel over the whole graph
        where the program's declaration allows it. ``edge_reads`` is
        the *model* count either way — the gather-degree sum of
        ``vids`` — and ``vids`` must be sorted unique.
        """
        if self._gather_side is None:
            return None, 0
        if dense and self.can_gather:
            acc = self._gather_dense(ctx)
            n_reads = int(self._gather_side.counts[vids].sum())
            if vids.size != acc.shape[0]:
                acc = acc[vids]
            return acc, n_reads
        nbr, center, eid, counts = self._gather_side.edges(vids)
        values = self._contributions(ctx, nbr, center, eid)
        acc = segmented_reduce(values, counts, self.program.gather_op)
        return acc, int(nbr.size)

    def gather_one(self, ctx: "Context",
                   v: int) -> "tuple[np.ndarray | None, int]":
        """:meth:`gather` for one vertex on the callback path: its
        slots are contiguous, so slice views and a single-block reduce
        stand in for index materialization and the segment kernel."""
        side = self._gather_side
        if side is None:
            return None, 0
        ptr, idx, eid = side.ptr, side.idx, side.eid
        program = self.program
        s, e = int(ptr[v]), int(ptr[v + 1])
        if e == s:
            width = program.gather_width
            return np.full((1,) if width == 1 else (1, width),
                           REDUCE_IDENTITY[program.gather_op],
                           dtype=program.gather_dtype), 0
        nbr = idx[s:e]
        values = self._contributions(
            ctx, nbr, np.full(nbr.size, v, dtype=np.int64), eid[s:e])
        return reduce_block(values, program.gather_op), nbr.size

    def stream(self, ctx: "Context", source_live: np.ndarray) -> np.ndarray:
        """Edge-centric gather: touch *every* arc, scatter-add per
        target the contributions of arcs whose source is live; every
        other row holds the reduction identity."""
        side = self._gather_side
        op = self.program.gather_op
        acc = np.full(self.graph.n_vertices, REDUCE_IDENTITY[op])
        live = source_live[side.idx]
        if live.any():
            tgt = side.slot_center[live]
            values = self._contributions(ctx, side.idx[live], tgt,
                                         side.eid[live])
            REDUCE_UFUNC[op].at(acc, tgt, values)
        return acc

    # ------------------------------------------------------------------
    # Scatter
    # ------------------------------------------------------------------
    def signal_edges(self, ctx: "Context", vids: np.ndarray,
                     ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(center, nbr, mask)`` over the scatter edges of ``vids``
        (sorted unique, as for :meth:`gather`): ``mask`` is True where
        the edge delivers a signal."""
        if self._scatter_side is None:
            return _NO_VERTICES, _NO_VERTICES, np.empty(0, dtype=bool)
        nbr, center, eid, _ = self._scatter_side.edges(vids)
        return center, nbr, self._signal_mask(ctx, center, nbr, eid)

    def scatter(self, ctx: "Context", vids: np.ndarray,
                dense: bool = False) -> "tuple[np.ndarray, int]":
        """The sorted unique vertices signaled by ``vids`` and the
        messages sent; ``vids`` (sorted unique) and ``dense`` as for
        :meth:`gather`."""
        if dense and self.can_scatter:
            return self._scatter_dense(ctx, vids)
        _, nbr, mask = self.signal_edges(ctx, vids)
        return (sorted_unique_ids(nbr[mask], self.graph.n_vertices),
                int(mask.sum()))

    def signaled_by(self, ctx: "Context", v: int) -> np.ndarray:
        """The recipients of one vertex's signals, in slot order (one
        entry per message) — :meth:`signal_edges` over slice views."""
        side = self._scatter_side
        if side is None:
            return _NO_VERTICES
        ptr, idx, eid = side.ptr, side.idx, side.eid
        s, e = int(ptr[v]), int(ptr[v + 1])
        if e == s:
            return _NO_VERTICES
        nbr = idx[s:e]
        center = np.full(nbr.size, v, dtype=np.int64)
        return nbr[self._signal_mask(ctx, center, nbr, eid[s:e])]

    # ------------------------------------------------------------------
    # The fused paths
    # ------------------------------------------------------------------
    @cached_property
    def _weights(self) -> "np.ndarray | None":
        if self.program.gather_shape == "vertex":
            return None
        return self.graph.edge_weight[self._gather_side.eid]

    def _source(self, ctx: "Context") -> np.ndarray:
        """The declared source vector: float64, or for ``count`` the
        integer labels, each in ``[0, gather_width)`` (a label outside
        it would land in another vertex's histogram row)."""
        program = self.program
        x = np.asarray(program.gather_source(ctx))
        if x.shape != (self.graph.n_vertices,):
            raise ValidationError(
                f"{program.name}.gather_source returned shape {x.shape}, "
                f"expected ({self.graph.n_vertices},)")
        if program.gather_shape != "count":
            return x.astype(np.float64, copy=False)
        if x.dtype.kind not in "iu" or (
                x.size and (x.min() < 0 or x.max() >= program.gather_width)):
            raise ValidationError(
                f"{program.name}.gather_source must return integer labels "
                f"in [0, {program.gather_width}) for a count gather")
        return x.astype(np.int64, copy=False)

    def _slot_values(self, x: np.ndarray) -> np.ndarray:
        """Per-slot contribution for every adjacency slot of the gather
        side, in slot order — the fused equivalent of ``gather_edge``."""
        values = x[self._gather_side.idx]
        shape = self.program.gather_shape
        if shape == "vertex_plus_edge":
            values = values + self._weights
        elif shape == "vertex_times_edge":
            values = self._weights * values
        return values

    def _gather_dense(self, ctx: "Context") -> np.ndarray:
        """Accumulator rows for *every* vertex (pull-mode full gather)."""
        x = self._source(ctx)
        side = self._gather_side
        if self.program.gather_shape == "count":
            # Bin ``center·width + label`` counts each (vertex, label)
            # pair: an integer histogram, so it is the callback path's
            # sum of one-hot rows in every order.
            width = self.program.gather_width
            bins = side.slot_center * width + x[side.idx]
            return np.bincount(bins, minlength=side.n * width).reshape(
                side.n, width).astype(np.float64)
        return side.reduce(self._slot_values(x), self.program.gather_op)

    def _scatter_dense(self, ctx: "Context",
                       vids: np.ndarray) -> "tuple[np.ndarray, int]":
        """Center-shape scatter without materializing the edge mask.

        ``messages`` is the masked frontier's scatter-degree sum and
        ``signaled`` the sorted unique recipients — both bit-identical
        to the callback path (the indicator SpMV sums 0/1 values, which
        every summation order reproduces exactly in float64).
        """
        program = self.program
        m = np.asarray(program.scatter_vertex_mask(ctx, vids), dtype=bool)
        if m.shape != (vids.size,):
            raise ValidationError(
                f"{program.name}.scatter_vertex_mask returned shape "
                f"{m.shape}, expected ({vids.size},)")
        senders = vids[m]
        n_msgs = int(self._scatter_side.counts[senders].sum())
        if senders.size == 0:
            return _NO_VERTICES, n_msgs
        indicator = np.zeros(self.graph.n_vertices, dtype=np.float64)
        indicator[senders] = 1.0
        # "Who got signaled" traverses the *reverse* adjacency.
        reverse = "in" if program.scatter_dir is Direction.OUT else "out"
        hits = self.graph.spmv_ones(reverse, indicator)
        return np.flatnonzero(hits > 0.0).astype(np.int64, copy=False), n_msgs
