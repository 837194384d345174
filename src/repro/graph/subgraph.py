"""Subgraph extraction: induced subgraphs and connected components.

Utilities a benchmark practitioner needs around the corpus: cutting the
giant component out of a synthetic graph (diameter and distance
measures are only meaningful there), sampling induced subgraphs, and
relabeling vertex ids compactly. All pure functions over the immutable
:class:`~repro.graph.csr.Graph`.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.graph.csr import Graph


def induced_subgraph(graph: Graph,
                     vertices: np.ndarray) -> tuple[Graph, np.ndarray]:
    """The subgraph induced by ``vertices``, with compact relabeling.

    Returns
    -------
    (subgraph, mapping):
        ``mapping[i]`` is the original id of the subgraph's vertex
        ``i``. Edge weights follow their edges.
    """
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    if vertices.size == 0:
        raise ValidationError("cannot induce a subgraph on no vertices")
    if vertices.min() < 0 or vertices.max() >= graph.n_vertices:
        raise ValidationError("vertex ids out of range")

    inverse = np.full(graph.n_vertices, -1, dtype=np.int64)
    inverse[vertices] = np.arange(vertices.size)

    src, dst = graph.edge_endpoints()
    keep = (inverse[src] >= 0) & (inverse[dst] >= 0)
    sub = Graph.from_edges(
        vertices.size,
        inverse[src[keep]],
        inverse[dst[keep]],
        weight=(graph.edge_weight[keep]
                if graph.edge_weight is not None else None),
        directed=graph.directed,
        dedup=False,
        drop_self_loops=False,
        meta={**graph.meta, "induced_from": graph.n_vertices},
    )
    return sub, vertices


def connected_component_labels(graph: Graph) -> np.ndarray:
    """Component label per vertex (undirected connectivity), via an
    iterative frontier BFS over the CSR — no recursion, no networkx."""
    n = graph.n_vertices
    labels = np.full(n, -1, dtype=np.int64)
    ptr, idx = graph.out_ptr, graph.out_dst
    if graph.directed:
        # Undirected connectivity over a directed graph needs both
        # orientations; merge in the in-adjacency.
        ptr2, idx2 = graph.in_ptr, graph.in_src
    next_label = 0
    for seed in range(n):
        if labels[seed] != -1:
            continue
        labels[seed] = next_label
        frontier = np.asarray([seed], dtype=np.int64)
        while frontier.size:
            from repro._util.segments import concat_ranges

            slots = concat_ranges(ptr[frontier], ptr[frontier + 1])
            nbrs = idx[slots]
            if graph.directed:
                slots2 = concat_ranges(ptr2[frontier], ptr2[frontier + 1])
                nbrs = np.concatenate([nbrs, idx2[slots2]])
            fresh = np.unique(nbrs[labels[nbrs] == -1])
            labels[fresh] = next_label
            frontier = fresh
        next_label += 1
    return labels


def largest_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Extract the largest connected component (ties break by lowest
    label). Returns (subgraph, original ids)."""
    labels = connected_component_labels(graph)
    counts = np.bincount(labels)
    winner = int(np.argmax(counts))
    return induced_subgraph(graph, np.flatnonzero(labels == winner))


def component_sizes(graph: Graph) -> np.ndarray:
    """Sizes of all connected components, descending."""
    counts = np.bincount(connected_component_labels(graph))
    return np.sort(counts)[::-1]
