"""Tests for the CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import GraphConstructionError, ValidationError
from repro._util.segments import first_occurrences
from repro.generators.problem import ProblemInstance
from repro.graph import shm
from repro.graph.csr import Graph


def toy_graph(directed=False):
    # 0-1, 0-2, 1-2, 2-3
    return Graph.from_edges(
        4,
        np.array([0, 0, 1, 2]),
        np.array([1, 2, 2, 3]),
        directed=directed,
    )


class TestConstruction:
    def test_counts_undirected(self):
        g = toy_graph()
        assert g.n_vertices == 4
        assert g.n_edges == 4
        assert g.n_arcs == 8
        assert not g.directed

    def test_counts_directed(self):
        g = toy_graph(directed=True)
        assert g.n_edges == 4
        assert g.n_arcs == 4

    def test_dedup_collapses_duplicates(self):
        g = Graph.from_edges(3, np.array([0, 1, 0]), np.array([1, 0, 1]))
        assert g.n_edges == 1  # (0,1), (1,0), (0,1) are one undirected edge

    def test_directed_keeps_antiparallel(self):
        g = Graph.from_edges(3, np.array([0, 1]), np.array([1, 0]),
                             directed=True)
        assert g.n_edges == 2

    def test_drops_self_loops(self):
        g = Graph.from_edges(3, np.array([0, 1]), np.array([0, 2]))
        assert g.n_edges == 1

    def test_keeps_self_loops_when_asked(self):
        g = Graph.from_edges(3, np.array([0]), np.array([0]),
                             drop_self_loops=False, directed=True)
        assert g.n_edges == 1

    def test_weights_follow_dedup(self):
        g = Graph.from_edges(
            3, np.array([0, 0]), np.array([1, 1]),
            weight=np.array([5.0, 9.0]),
        )
        assert g.n_edges == 1
        assert g.edge_weight[0] == 5.0  # first occurrence wins

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphConstructionError):
            Graph.from_edges(2, np.array([0]), np.array([5]))

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphConstructionError):
            Graph.from_edges(0, np.array([], dtype=int),
                             np.array([], dtype=int))

    def test_rejects_mismatched_weight(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(3, np.array([0]), np.array([1]),
                             weight=np.array([1.0, 2.0]))

    def test_arrays_are_readonly(self):
        g = toy_graph()
        with pytest.raises(ValueError):
            g.out_dst[0] = 99


class TestAdjacency:
    def test_degrees_undirected(self):
        g = toy_graph()
        assert g.degree.tolist() == [2, 2, 3, 1]
        assert g.out_degree.tolist() == g.in_degree.tolist()

    def test_degrees_directed(self):
        g = toy_graph(directed=True)
        assert g.out_degree.tolist() == [2, 1, 1, 0]
        assert g.in_degree.tolist() == [0, 1, 2, 1]
        assert g.degree.tolist() == [2, 2, 3, 1]

    def test_degrees_are_cached_and_read_only(self):
        g = toy_graph()
        assert g.out_degree is g.out_degree
        assert g.in_degree is g.in_degree
        assert g.degree is g.degree
        for arr in (g.out_degree, g.in_degree, g.degree):
            assert not arr.flags.writeable
        d = toy_graph(directed=True)
        assert d.degree is d.degree
        assert not d.degree.flags.writeable

    def test_neighbors_sorted(self):
        g = toy_graph()
        assert g.neighbors(2).tolist() == [0, 1, 3]

    def test_neighbors_rejects_directed(self):
        g = toy_graph(directed=True)
        with pytest.raises(ValidationError):
            g.neighbors(0)

    def test_out_in_neighbors_directed(self):
        g = toy_graph(directed=True)
        assert g.out_neighbors(0).tolist() == [1, 2]
        assert g.in_neighbors(2).tolist() == [0, 1]

    def test_has_edge(self):
        g = toy_graph()
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)  # symmetric
        assert not g.has_edge(0, 3)

    def test_has_edge_directed(self):
        g = toy_graph(directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_ids_shared_between_directions(self):
        g = toy_graph()
        # Arc 0->1 and arc 1->0 must carry the same edge id.
        eid_fwd = g.out_eid[g.out_ptr[0]:g.out_ptr[1]][
            g.out_dst[g.out_ptr[0]:g.out_ptr[1]].tolist().index(1)]
        eid_bwd = g.out_eid[g.out_ptr[1]:g.out_ptr[2]][
            g.out_dst[g.out_ptr[1]:g.out_ptr[2]].tolist().index(0)]
        assert eid_fwd == eid_bwd

    def test_edge_endpoints_roundtrip(self):
        g = toy_graph()
        src, dst = g.edge_endpoints()
        got = {tuple(sorted(p)) for p in zip(src.tolist(), dst.tolist())}
        assert got == {(0, 1), (0, 2), (1, 2), (2, 3)}

    def test_edge_endpoints_directed(self):
        g = toy_graph(directed=True)
        src, dst = g.edge_endpoints()
        assert set(zip(src.tolist(), dst.tolist())) == {
            (0, 1), (0, 2), (1, 2), (2, 3)}

    def test_memory_bytes_positive(self):
        assert toy_graph().memory_bytes() > 0


class TestAgainstNetworkx:
    def test_random_graph_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        n = 40
        src = rng.integers(0, n, 200)
        dst = rng.integers(0, n, 200)
        g = Graph.from_edges(n, src, dst)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from((int(a), int(b)) for a, b in zip(src, dst)
                         if a != b)
        assert g.n_edges == G.number_of_edges()
        for v in range(n):
            assert sorted(g.neighbors(v).tolist()) == sorted(G.neighbors(v))


@given(st.integers(2, 30), st.integers(0, 120), st.booleans(),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_csr_invariants(n, m, directed, seed):
    """Property: CSR structure is internally consistent for any input."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    g = Graph.from_edges(n, src, dst, directed=directed)
    # ptr arrays are monotone and span the arc count.
    assert g.out_ptr[0] == 0 and g.out_ptr[-1] == g.n_arcs
    assert g.in_ptr[0] == 0 and g.in_ptr[-1] == g.n_arcs
    assert np.all(np.diff(g.out_ptr) >= 0)
    assert np.all(np.diff(g.in_ptr) >= 0)
    # Every arc's eid is a valid logical edge.
    if g.n_arcs:
        assert g.out_eid.max() < g.n_edges
        assert g.in_eid.max() < g.n_edges
    # Undirected graphs store exactly two arcs per edge.
    if not directed:
        assert g.n_arcs == 2 * g.n_edges
    # Total degree equals arc count.
    assert int(g.out_degree.sum()) == g.n_arcs
    assert int(g.in_degree.sum()) == g.n_arcs


# ----------------------------------------------------------------------
# The construction contract (DESIGN §5), as properties: one adjacency
# per undirected graph, checked against a two-key lexsort oracle
# ----------------------------------------------------------------------
CSR_PAIRS = (("in_ptr", "out_ptr"), ("in_src", "out_dst"),
             ("in_eid", "out_eid"))


@st.composite
def edge_lists(draw):
    """``(n, src, dst)`` with everything construction must state a rule
    for: self-loops, repeated edges, both orientations of one edge, and
    ids in ``[n_used, n)`` that no edge touches."""
    n_used = draw(st.integers(1, 12))
    n = n_used + draw(st.integers(0, 4))
    vertex = st.integers(0, n_used - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    pairs += [(v, u) for u, v in
              draw(st.lists(st.sampled_from(pairs), max_size=8)
                   if pairs else st.just([]))]
    pairs = draw(st.permutations(pairs))
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    return n, src, dst


def oracle_edges(n, src, dst, directed, dedup, drop_self_loops):
    """The logical edges by eid, stated with Python containers."""
    edges, seen = [], set()
    for u, v in zip(src.tolist(), dst.tolist()):
        if drop_self_loops and u == v:
            continue
        if not directed:
            u, v = min(u, v), max(u, v)
        if dedup and (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v))
    return edges


def oracle_csr(n, rows, cols, eids):
    """``(ptr, idx, eid)`` by the two-key ``lexsort`` the graph used to
    run once per orientation."""
    rows, cols, eids = (np.asarray(a, dtype=np.int64)
                        for a in (rows, cols, eids))
    order = np.lexsort((cols, rows))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr, cols[order], eids[order]


def oracle_arcs(edges, directed):
    us = [u for u, _ in edges]
    vs = [v for _, v in edges]
    eids = list(range(len(edges)))
    if directed:
        return us, vs, eids
    return us + vs, vs + us, eids + eids


def assert_csr(graph, side, expected):
    names = {"out": ("out_ptr", "out_dst", "out_eid"),
             "in": ("in_ptr", "in_src", "in_eid")}[side]
    for name, want in zip(names, expected):
        got = getattr(graph, name)
        assert got.dtype == np.int64 and not got.flags.writeable
        np.testing.assert_array_equal(got, want, err_msg=name)


@given(edge_lists(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_an_undirected_graph_stores_one_adjacency(edges, dedup, drop):
    n, src, dst = edges
    g = Graph.from_edges(n, src, dst, dedup=dedup, drop_self_loops=drop)
    for in_name, out_name in CSR_PAIRS:
        assert getattr(g, in_name) is getattr(g, out_name)
    logical = oracle_edges(n, src, dst, False, dedup, drop)
    assert g.n_edges == len(logical)
    rows, cols, eids = oracle_arcs(logical, directed=False)
    assert_csr(g, "out", oracle_csr(n, rows, cols, eids))
    # ... and it is the in-CSR a second sort would have built.
    assert_csr(g, "in", oracle_csr(n, cols, rows, eids))
    assert g.in_degree is g.out_degree
    assert g.ones_adjacency_csr("in") is g.ones_adjacency_csr("out")
    assert set(g.buffers()) == {"out_ptr", "out_dst", "out_eid"}
    assert g.memory_bytes() == sum(
        a.nbytes for a in (g.out_ptr, g.out_dst, g.out_eid))


@given(edge_lists(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_a_directed_graph_keeps_two_adjacencies(edges, dedup, drop):
    n, src, dst = edges
    g = Graph.from_edges(n, src, dst, directed=True, dedup=dedup,
                         drop_self_loops=drop)
    for in_name, out_name in CSR_PAIRS:
        assert getattr(g, in_name) is not getattr(g, out_name)
    logical = oracle_edges(n, src, dst, True, dedup, drop)
    rows, cols, eids = oracle_arcs(logical, directed=True)
    assert_csr(g, "out", oracle_csr(n, rows, cols, eids))
    assert_csr(g, "in", oracle_csr(n, cols, rows, eids))
    assert g.ones_adjacency_csr("in") is not g.ones_adjacency_csr("out")
    assert len(g.buffers()) == 6
    assert g.memory_bytes() == sum(
        getattr(g, name).nbytes for pair in CSR_PAIRS for name in pair)


@given(edge_lists(), st.booleans(), st.booleans(), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_structure_ignores_edge_order_and_eids_follow_it(
        edges, directed, dedup, drop, random):
    """Metamorphic: permuting the edge list moves no adjacency slot's
    neighbour; on a list of distinct edges every slot's eid is the
    permuted position of the edge it had."""
    n, src, dst = edges
    perm = np.array(random.sample(range(src.size), src.size), dtype=np.int64)
    kwargs = dict(directed=directed, dedup=dedup, drop_self_loops=drop)
    g = Graph.from_edges(n, src, dst, **kwargs)
    h = Graph.from_edges(n, src[perm], dst[perm], **kwargs)
    for name in ("out_ptr", "out_dst", "in_ptr", "in_src"):
        np.testing.assert_array_equal(getattr(g, name), getattr(h, name))

    # The distinct edges of g, fed back in a permuted order.
    u, v = g.edge_endpoints()
    if not dedup:  # parallel edges tie on (src, dst): keep one of each
        first = first_occurrences(u * np.int64(n) + v)
        u, v = u[first], v[first]
    perm = np.array(random.sample(range(u.size), u.size), dtype=np.int64)
    a = Graph.from_edges(n, u, v, directed=directed, dedup=False,
                         drop_self_loops=False)
    b = Graph.from_edges(n, u[perm], v[perm], directed=directed,
                         dedup=False, drop_self_loops=False)
    np.testing.assert_array_equal(perm[b.out_eid], a.out_eid)
    np.testing.assert_array_equal(perm[b.in_eid], a.in_eid)


@given(st.lists(st.integers(-5, 5), max_size=60))
@settings(max_examples=200, deadline=None)
def test_first_occurrences_is_the_sorted_unique_index(values):
    key = np.array(values, dtype=np.int64)
    first = first_occurrences(key)
    np.testing.assert_array_equal(
        first, np.sort(np.unique(key, return_index=True)[1]))
    assert first.dtype == np.int64


@given(edge_lists(), st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_shm_round_trips_values_and_aliasing(edges, directed, weighted):
    n, src, dst = edges
    g = Graph.from_edges(n, src, dst, directed=directed)
    if weighted:
        g = Graph.from_edges(n, src, dst, directed=directed,
                             weight=np.arange(src.size, dtype=np.float64))
    problem = ProblemInstance(graph=g, domain="ga",
                              inputs={"mask": np.ones(n, dtype=bool)})
    plane = shm.GraphPlane()
    try:
        manifest = plane.publish("prop", problem)
        # Published once per distinct array: the bytes the e2e
        # benchmark reports as graph.shm.bytes.
        assert sum(a.nbytes for a in manifest.arrays) == \
            g.memory_bytes() + n
        # A worker resolves by key once the manifest is installed.
        shm.install_manifest(manifest)
        for attached in (shm.attach(manifest).graph,
                         shm.resolve("prop").graph):
            for name in ("out_ptr", "out_dst", "out_eid",
                         "in_ptr", "in_src", "in_eid"):
                np.testing.assert_array_equal(getattr(attached, name),
                                              getattr(g, name))
                assert not getattr(attached, name).flags.writeable
            for in_name, out_name in CSR_PAIRS:
                assert (getattr(attached, in_name)
                        is getattr(attached, out_name)) is not directed
            if weighted:
                np.testing.assert_array_equal(attached.edge_weight,
                                              g.edge_weight)
            assert attached.memory_bytes() == g.memory_bytes()
    finally:
        plane.close()
        shm._close_attachments()
        shm._INSTALLED_MANIFESTS.pop("prop", None)
