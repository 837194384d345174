"""Synthetic pairwise Markov Random Fields for Dual Decomposition.

The paper downloads real MRF instances (PIC2011, UAI format) with edge
counts {1056, 1190, 1406, 1560}. Those files are not redistributable
here, so we generate synthetic pairwise MRFs with the *same* edge
counts and the structural character of the PIC2011 vision instances: a
lattice backbone (loopy, locally connected) plus random chords, binary
to small-cardinality variables, and random Potts-like potentials. DD's
behavior signature — every variable active every iteration, slow
subgradient convergence, WORK the only size-sensitive metric — is a
property of that class, which this generator exercises.

Instances round-trip through :mod:`repro.graph.io`'s UAI reader/writer,
so the DD program consumes exactly the format the paper used.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.generators.grid import lattice_edges
from repro.generators.pairs import distinct_pairs
from repro.generators.problem import ProblemInstance
from repro.generators.rng import make_rng
from repro.graph.io import PairwiseMRF

#: Edge counts of the paper's four DD inputs (Table 2).
PAPER_MRF_EDGE_COUNTS = (1056, 1190, 1406, 1560)


def mrf_problem(
    nedges: int,
    *,
    n_states: int = 2,
    coupling: float = 2.0,
    seed: int = 0,
) -> ProblemInstance:
    """Generate a loopy pairwise MRF with exactly ``nedges`` factors.

    The interaction graph is the largest square lattice whose edge count
    does not exceed ``nedges``, completed with random non-lattice chords
    up to the exact target.

    Returns a :class:`ProblemInstance` with domain ``"mrf"`` and inputs
    ``mrf`` (a :class:`~repro.graph.io.PairwiseMRF`).
    """
    if nedges < 4:
        raise ValidationError("nedges must be >= 4")
    if n_states < 2:
        raise ValidationError("n_states must be >= 2")

    # Lattice with 2*side*(side-1) edges <= nedges.
    side = 2
    while 2 * (side + 1) * side <= nedges:
        side += 1
    src, dst = lattice_edges(side)
    n = side * side

    rng_chords = make_rng(seed, "mrf", "chords")
    rng_pots = make_rng(seed, "mrf", "potentials")

    def draw(batch: int) -> tuple[np.ndarray, np.ndarray]:
        pairs = rng_chords.integers(0, n, size=(batch, 2))
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        # A chord joins two distinct pixels that are not lattice
        # neighbours (right: lo + 1 in the same row; down: lo + side).
        gap = hi - lo
        chord = (gap != 0) & (gap != side) & ((gap != 1) | (hi % side == 0))
        return lo[chord], hi[chord]

    chords_u, chords_v = distinct_pairs(draw, nedges - src.size, n)
    pair_vars = np.column_stack([np.concatenate([src, chords_u]),
                                 np.concatenate([dst, chords_v])])

    cards = np.full(n, n_states, dtype=np.int64)
    unary = [rng_pots.normal(0.0, 1.0, size=n_states) for _ in range(n)]
    pair_tables = []
    for _ in range(pair_vars.shape[0]):
        # Potts-like: agreement bonus with random strength and sign, the
        # frustrated mixed-sign regime where DD is actually needed.
        strength = coupling * rng_pots.normal(0.0, 1.0)
        table = np.full((n_states, n_states), 0.0)
        np.fill_diagonal(table, strength)
        table += 0.1 * rng_pots.normal(0.0, 1.0, size=(n_states, n_states))
        pair_tables.append(table)

    mrf = PairwiseMRF(
        cardinalities=cards,
        unary=unary,
        pair_vars=pair_vars,
        pair_tables=pair_tables,
    )
    mrf.validate()
    graph = mrf.to_graph()
    graph.meta.update({"generator": "mrf", "nedges": nedges,
                       "n_states": n_states, "seed": seed})
    return ProblemInstance(
        graph=graph,
        domain="mrf",
        inputs={"mrf": mrf},
        params={"nedges": nedges, "n_states": n_states, "seed": seed},
    )
