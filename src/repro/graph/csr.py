"""Immutable CSR (compressed sparse row) graph.

The :class:`Graph` is the single graph representation used by the whole
library. It exposes the adjacency in both orientations (out-edges and
in-edges) so the GAS engine can gather over either direction with
contiguous slices, plus an *edge id* per adjacency slot so that the two
orientations (and, for undirected graphs, the two arcs of one logical
edge) share one weight/state slot. A directed graph stores two CSRs; an
undirected graph's two orientations are equal element for element, so
it stores one and its ``in_*`` attributes *are* its ``out_*`` arrays
(as the GAP reference ``CSRGraph`` does). The construction contract —
canonical ``(lo, hi)``, first occurrence wins, slot order, edge ids —
is DESIGN §5.

Terminology
-----------
arc
    One directed adjacency slot. An undirected graph stores each logical
    edge as two arcs.
edge
    One logical edge: what generators count, what weights attach to, and
    what the paper's per-edge metric normalization divides by.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro._util.errors import GraphConstructionError, ValidationError
from repro._util.segments import first_occurrences


class Graph:
    """Immutable CSR graph, readable in both orientations.

    Build instances with :meth:`Graph.from_edges`; the raw constructor
    expects already-validated CSR arrays and is intended for internal
    use and tests.

    Attributes
    ----------
    n_vertices:
        Number of vertices ``n``; vertex ids are ``0..n-1``.
    n_edges:
        Number of *logical* edges (undirected edges count once).
    n_arcs:
        Number of directed adjacency slots (``2 * n_edges`` when
        undirected).
    directed:
        Whether the graph is directed.
    out_ptr, out_dst, out_eid:
        CSR of out-edges: vertex ``v``'s out-neighbors are
        ``out_dst[out_ptr[v]:out_ptr[v+1]]`` and the corresponding
        logical edge ids ``out_eid[...]``. Neighbors are sorted per
        vertex.
    in_ptr, in_src, in_eid:
        CSR of in-edges, same layout. On an undirected graph these are
        the ``out_*`` arrays themselves (``g.in_ptr is g.out_ptr``),
        not copies; :meth:`buffers` names each distinct array once.
    edge_weight:
        Optional float64 array of shape ``(n_edges,)``.
    """

    __slots__ = (
        "n_vertices", "n_edges", "n_arcs", "directed",
        "out_ptr", "out_dst", "out_eid",
        "in_ptr", "in_src", "in_eid",
        "edge_weight", "meta", "__dict__",
    )

    def __init__(
        self,
        *,
        n_vertices: int,
        n_edges: int,
        directed: bool,
        out_ptr: np.ndarray,
        out_dst: np.ndarray,
        out_eid: np.ndarray,
        in_ptr: np.ndarray,
        in_src: np.ndarray,
        in_eid: np.ndarray,
        edge_weight: np.ndarray | None = None,
        meta: dict | None = None,
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.n_edges = int(n_edges)
        self.n_arcs = int(out_dst.shape[0])
        self.directed = bool(directed)
        self.out_ptr = out_ptr
        self.out_dst = out_dst
        self.out_eid = out_eid
        self.in_ptr = in_ptr
        self.in_src = in_src
        self.in_eid = in_eid
        self.edge_weight = edge_weight
        #: Free-form provenance (generator name, parameters, seed).
        self.meta = dict(meta or {})
        for arr in (out_ptr, out_dst, out_eid, in_ptr, in_src, in_eid):
            arr.setflags(write=False)
        if edge_weight is not None:
            edge_weight.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        weight: np.ndarray | None = None,
        directed: bool = False,
        dedup: bool = True,
        drop_self_loops: bool = True,
        meta: dict | None = None,
    ) -> "Graph":
        """Build a graph from parallel edge arrays.

        Parameters
        ----------
        n_vertices:
            Vertex-id domain size; all of ``src``/``dst`` must be in
            ``[0, n_vertices)``.
        src, dst:
            Integer endpoint arrays of equal length.
        weight:
            Optional per-edge weights, aligned with ``src``/``dst``
            *before* dedup (the first occurrence's weight wins).
        directed:
            If False (default), the edge set is symmetrized: arcs exist
            in both directions and share the logical edge's weight slot.
        dedup:
            Drop duplicate edges (and, for undirected graphs, treat
            ``(u, v)`` and ``(v, u)`` as the same edge).
        drop_self_loops:
            Drop ``(v, v)`` edges (the synthetic generators can emit
            them; none of the paper's algorithms use them).
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValidationError("src and dst must have the same length")
        if n_vertices <= 0:
            raise GraphConstructionError("graph must have at least one vertex")
        if src.size and (src.min() < 0 or dst.min() < 0
                         or src.max() >= n_vertices
                         or dst.max() >= n_vertices):
            raise GraphConstructionError(
                f"edge endpoints out of range [0, {n_vertices})"
            )
        w = None
        if weight is not None:
            w = np.asarray(weight, dtype=np.float64).ravel()
            if w.shape != src.shape:
                raise ValidationError("weight must align with src/dst")

        if drop_self_loops and src.size:
            keep = src != dst
            src, dst = src[keep], dst[keep]
            if w is not None:
                w = w[keep]

        if not directed and src.size:
            # Canonicalize so (u, v) and (v, u) collapse under dedup.
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            src, dst = lo, hi

        if dedup and src.size:
            first = first_occurrences(src * np.int64(n_vertices) + dst)
            src, dst = src[first], dst[first]
            if w is not None:
                w = w[first]

        m = src.size
        eid = np.arange(m, dtype=np.int64)
        if directed:
            a_src, a_dst, a_eid = src, dst, eid
        else:
            a_src = np.concatenate([src, dst])
            a_dst = np.concatenate([dst, src])
            a_eid = np.concatenate([eid, eid])

        out_ptr, out_dst, out_eid = _build_csr(n_vertices, a_src, a_dst, a_eid)
        # A symmetric arc set sorts to the same CSR from either end.
        in_ptr, in_src, in_eid = (
            _build_csr(n_vertices, a_dst, a_src, a_eid) if directed
            else (out_ptr, out_dst, out_eid))

        return cls(
            n_vertices=n_vertices,
            n_edges=m,
            directed=directed,
            out_ptr=out_ptr, out_dst=out_dst, out_eid=out_eid,
            in_ptr=in_ptr, in_src=in_src, in_eid=in_eid,
            edge_weight=w,
            meta=meta,
        )

    # ------------------------------------------------------------------
    # Degrees and adjacency
    # ------------------------------------------------------------------
    @cached_property
    def out_degree(self) -> np.ndarray:
        """Out-degree of every vertex (undirected: total degree).

        Computed once and cached read-only on the immutable graph, so
        engine frontier paths can use it every superstep for free.
        """
        deg = np.diff(self.out_ptr)
        deg.setflags(write=False)
        return deg

    @cached_property
    def in_degree(self) -> np.ndarray:
        """In-degree of every vertex (undirected: total degree);
        cached read-only like :attr:`out_degree`."""
        if self.in_ptr is self.out_ptr:
            return self.out_degree
        deg = np.diff(self.in_ptr)
        deg.setflags(write=False)
        return deg

    @cached_property
    def degree(self) -> np.ndarray:
        """Undirected degree; for directed graphs, in + out. Cached
        read-only like :attr:`out_degree`."""
        if not self.directed:
            return self.out_degree
        deg = self.out_degree + self.in_degree
        deg.setflags(write=False)
        return deg

    @cached_property
    def inv_out_degree(self) -> np.ndarray:
        """``1 / out_degree`` with isolated vertices mapped to ``0.0``.

        The guarded form (mask, then divide by ``max(deg, 1)``) never
        evaluates ``1/0``, so no NaN/Inf ever enters a normalization —
        degree-zero vertices simply contribute nothing. Cached read-only
        like :attr:`out_degree`.
        """
        deg = self.out_degree.astype(np.float64)
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        inv.setflags(write=False)
        return inv

    @cached_property
    def inv_in_degree(self) -> np.ndarray:
        """``1 / in_degree`` with isolated vertices mapped to ``0.0``;
        guarded and cached like :attr:`inv_out_degree`."""
        if self.in_ptr is self.out_ptr:
            return self.inv_out_degree
        deg = self.in_degree.astype(np.float64)
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        inv.setflags(write=False)
        return inv

    def _csr_arrays(self, orientation: str):
        if orientation == "in":
            return self.in_ptr, self.in_src
        if orientation == "out":
            return self.out_ptr, self.out_dst
        raise ValidationError(
            f"orientation must be 'in' or 'out', got {orientation!r}")

    def ones_adjacency_csr(self, orientation: str = "in"):
        """``scipy.sparse`` CSR of one adjacency with unit data, cached.

        Row ``v`` holds a ``1.0`` per adjacency slot, so ``M @ x`` is
        the per-vertex sum of neighbor values. The matrix is built once
        per stored adjacency — an undirected graph's two orientations
        are one — and cached on the immutable graph.
        """
        ptr, idx = self._csr_arrays(orientation)
        if ptr is self.out_ptr:
            orientation = "out"
        cache = self.__dict__.setdefault("_ones_csr_cache", {})
        mat = cache.get(orientation)
        if mat is None:
            from scipy import sparse

            mat = sparse.csr_matrix(
                (np.ones(idx.size, dtype=np.float64),
                 idx.astype(np.int64, copy=True),
                 ptr.astype(np.int64, copy=True)),
                shape=(self.n_vertices, self.n_vertices),
            )
            cache[orientation] = mat
        return mat

    def spmv_ones(self, orientation: str, x: np.ndarray) -> np.ndarray:
        """``y[v] = Σ x[u]`` over ``v``'s neighbors in one adjacency.

        A scipy SpMV, which sums a row in another order than the
        engine's ``reduceat`` reducers, so this is only used where every
        order gives the same float64 result — integer-valued ``x``
        (indicator/count vectors) whose per-row sums stay below 2**53,
        as in the fused scatter's "who got signaled" SpMV.
        """
        return self.ones_adjacency_csr(orientation).dot(x)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbor ids of ``v`` (a read-only view)."""
        return self.out_dst[self.out_ptr[v]:self.out_ptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted in-neighbor ids of ``v`` (a read-only view)."""
        return self.in_src[self.in_ptr[v]:self.in_ptr[v + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of ``v``; undirected graphs only."""
        if self.directed:
            raise ValidationError(
                "neighbors() is only defined for undirected graphs; use "
                "out_neighbors()/in_neighbors()"
            )
        return self.out_neighbors(v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether arc ``u -> v`` exists (either direction if undirected)."""
        nbrs = self.out_neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (src, dst) arrays of the *logical* edges, by edge id."""
        srcs = np.empty(self.n_edges, dtype=np.int64)
        dsts = np.empty(self.n_edges, dtype=np.int64)
        # Each logical edge appears at least once in the out-CSR; take
        # the first slot per eid. Undirected graphs store (lo, hi) and
        # (hi, lo); the scatter below keeps whichever slot writes last,
        # and tests only rely on the endpoint *set*, so fix a canonical
        # orientation by preferring the slot with src <= dst.
        slot_src = np.repeat(np.arange(self.n_vertices, dtype=np.int64),
                             self.out_degree)
        order = np.argsort(self.out_eid, kind="stable")
        eids = self.out_eid[order]
        s = slot_src[order]
        d = self.out_dst[order]
        if not self.directed:
            canonical = s <= d
            eids, s, d = eids[canonical], s[canonical], d[canonical]
        srcs[eids] = s
        dsts[eids] = d
        return srcs, dsts

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return (f"Graph({kind}, n_vertices={self.n_vertices}, "
                f"n_edges={self.n_edges})")

    def buffers(self) -> "dict[str, np.ndarray]":
        """Every distinct array the graph holds, by attribute name: the
        ``in_*`` side only where it is not the ``out_*`` array itself,
        ``edge_weight`` when present. What is counted
        (:meth:`memory_bytes`) and published (``graph/shm.py``)."""
        found = {name: getattr(self, name)
                 for name in ("out_ptr", "out_dst", "out_eid")}
        for name, twin in (("in_ptr", "out_ptr"), ("in_src", "out_dst"),
                           ("in_eid", "out_eid")):
            if getattr(self, name) is not found[twin]:
                found[name] = getattr(self, name)
        if self.edge_weight is not None:
            found["edge_weight"] = self.edge_weight
        return found

    def memory_bytes(self) -> int:
        """Approximate resident size: each distinct array once."""
        return sum(arr.nbytes for arr in self.buffers().values())


def _build_csr(
    n: int, src: np.ndarray, dst: np.ndarray, eid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort arcs by (src, dst) and compress into (ptr, dst, eid); arcs
    that tie keep their input order (the sort is stable)."""
    order = np.argsort(src * np.int64(n) + dst, kind="stable")
    s = src[order]
    d = dst[order]
    e = eid[order]
    counts = np.bincount(s, minlength=n).astype(np.int64)
    ptr = np.empty(n + 1, dtype=np.int64)
    ptr[0] = 0
    np.cumsum(counts, out=ptr[1:])
    return ptr, d, e
