"""Golden construction fingerprints: every generator family's bytes.

One blake2b digest per (family, size, seed) over the graph's six CSR
arrays, ``edge_weight`` and every array-valued input, in a fixed order.
``tests/data/graph_fingerprints.json`` holds the digests the *parent*
of the shared-adjacency change produced; the tier-1 test
(``tests/test_generators.py::TestGoldenConstruction``) regenerates and
compares, so "same RNG streams, same edges in the same order, same
eids" is a checked statement. Uses only the public generator API, so
it runs unmodified under any commit's ``PYTHONPATH``::

    PYTHONPATH=<checkout>/src python tests/graph_fingerprints.py \
        tests/data/graph_fingerprints.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.generators import (
    bipartite_rating_graph,
    erdos_renyi_graph,
    grid_problem,
    matrix_problem,
    mrf_problem,
    powerlaw_graph,
    regular_graph,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "graph_fingerprints.json"

SEEDS = (1, 7, 11)

_CSR = ("out_ptr", "out_dst", "out_eid", "in_ptr", "in_src", "in_eid")

#: ``family -> (build(size, seed), sizes)``. The Erdős–Rényi sizes are
#: ``(nedges, mean_degree)``: the dense ones make the redraw loop run
#: 2–5 rounds, and ``(20000, 200)`` all 60 of them, ending short of the
#: target but inside the tolerance. The Chung-Lu generators' natural
#: cutoff keeps their duplicate loss under the oversampling margin at
#: every size, so they finish in one round.
FAMILIES = {
    "powerlaw-ga": (
        lambda size, seed: powerlaw_graph(size[0], size[1], seed=seed),
        ((50, 2.0), (1250, 2.5), (12500, 2.0), (20000, 1.1), (40000, 3.0))),
    "powerlaw-directed": (
        lambda size, seed: powerlaw_graph(size[0], size[1], seed=seed,
                                          directed=True),
        ((50, 2.0), (1250, 2.5), (20000, 1.1))),
    "powerlaw-clustering": (
        lambda size, seed: powerlaw_graph(size[0], size[1], seed=seed,
                                          with_points=True),
        ((300, 2.25), (1250, 2.0), (12500, 2.75))),
    "powerlaw-weighted": (
        lambda size, seed: powerlaw_graph(size[0], size[1], seed=seed,
                                          with_weights=True),
        ((300, 3.0), (1250, 2.5), (12500, 2.0))),
    "bipartite": (
        lambda size, seed: bipartite_rating_graph(size[0], size[1],
                                                  seed=seed),
        ((50, 2.0), (1250, 2.5), (12500, 2.0), (20000, 1.1))),
    "erdos-renyi": (
        lambda size, seed: erdos_renyi_graph(size[0], mean_degree=size[1],
                                             seed=seed),
        ((50, 8.0), (5000, 8.0), (1500, 50.0), (2000, 40.0), (5000, 80.0),
         (20000, 150.0), (20000, 200.0))),
    "regular": (
        lambda size, seed: regular_graph(size[0], size[1], seed=seed),
        ((10, 3), (200, 4), (3000, 8), (60, 40))),
    "grid": (
        lambda size, seed: grid_problem(size, seed=seed),
        (2, 12, 60)),
    "matrix": (
        lambda size, seed: matrix_problem(size, seed=seed),
        (5, 100, 1000)),
    "mrf": (
        lambda size, seed: mrf_problem(size, seed=seed),
        (4, 60, 1056)),
}


def _arrays(problem):
    """``(name, array)`` for everything the digest covers, in order."""
    graph = problem.graph
    for name in _CSR:
        yield name, getattr(graph, name)
    if graph.edge_weight is not None:
        yield "edge_weight", graph.edge_weight
    for key in sorted(problem.inputs):
        value = problem.inputs[key]
        if isinstance(value, np.ndarray):
            yield f"input.{key}", value
        elif key == "mrf":  # the DD domain carries a PairwiseMRF
            yield "mrf.cardinalities", value.cardinalities
            yield "mrf.pair_vars", value.pair_vars
            yield "mrf.unary", np.concatenate(value.unary)
            yield "mrf.pair_tables", np.stack(value.pair_tables)


def fingerprint(problem) -> str:
    """blake2b over names, dtypes, shapes and bytes of the arrays."""
    digest = hashlib.blake2b(digest_size=16)
    for name, arr in _arrays(problem):
        arr = np.ascontiguousarray(arr)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def cases():
    """``(case id, build thunk)`` over family × size × seed."""
    for family, (build, sizes) in FAMILIES.items():
        for size in sizes:
            for seed in SEEDS:
                yield (f"{family}/{size}/s{seed}",
                       lambda b=build, z=size, s=seed: b(z, s))


def compute() -> "dict[str, str]":
    return {case: fingerprint(build()) for case, build in cases()}


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    target.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
