"""Sparse diagonally-dominant linear systems for the Jacobi solver.

Paper Section 3.2: "Inputs of Jacobi include a matrix (also a weighted
graph with uniform degree for all vertices) and a vector ... we only
generate square matrices."

The matrix ``A`` is ``nrows × nrows`` with exactly ``row_degree``
off-diagonal entries per row (uniform degree, as in a stencil from a
linear solver), Gaussian values, and a diagonal inflated above the
row's absolute off-diagonal sum so Jacobi provably converges.

Graph encoding: edge ``j -> i`` with weight ``A[i, j]`` — vertex ``i``
gathers ``A[i, j] * x[j]`` over its in-edges, exactly the Jacobi sweep.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro.generators.problem import ProblemInstance
from repro.generators.rng import make_rng
from repro.graph.csr import Graph

#: Dominance margin: diag = (1 + margin) * sum(|offdiag|) + epsilon.
DOMINANCE_MARGIN = 0.1


def matrix_problem(
    nrows: int,
    *,
    row_degree: int | None = None,
    seed: int = 0,
) -> ProblemInstance:
    """Generate a diagonally dominant system ``A x = b``.

    Returns a :class:`ProblemInstance` with domain ``"matrix"`` and
    inputs ``b`` (right-hand side), ``diag`` (the diagonal of ``A``),
    and ``x_true`` (the solution used to manufacture ``b``, for
    validation).

    ``row_degree`` defaults to ``max(4, nrows // 25)``: the matrix keeps
    a constant *fill fraction* as it scales (like the paper's
    solver-derived matrices), which is what makes Jacobi's per-edge
    behavior scale-sensitive everywhere except EREAD (Figure 12).
    """
    if nrows < 2:
        raise ValidationError("nrows must be >= 2")
    if row_degree is None:
        row_degree = min(max(4, nrows // 25), nrows - 1)
    if not 1 <= row_degree < nrows:
        raise ValidationError("row_degree must be in [1, nrows)")

    rng_cols = make_rng(seed, "matrix", "columns")
    rng_vals = make_rng(seed, "matrix", "values")
    rng_x = make_rng(seed, "matrix", "solution")

    # Uniform degree: every row i picks row_degree distinct columns != i.
    # Vectorized distinct sampling: draw from [0, nrows-1) per row via
    # argpartition of random keys would be O(n * nrows); instead draw with
    # replacement + per-row dedup repair, cheap because row_degree << nrows.
    cols = rng_cols.integers(0, nrows - 1, size=(nrows, row_degree))
    rows = np.repeat(np.arange(nrows, dtype=np.int64), row_degree)
    # Shift draws >= row index up by one to exclude the diagonal.
    cols = cols + (cols >= np.arange(nrows)[:, None])
    # Repair duplicate columns within a row by linear probing.
    for i in np.flatnonzero(
        (np.sort(cols, axis=1)[:, 1:]
         == np.sort(cols, axis=1)[:, :-1]).any(axis=1)
    ):
        for j in range(row_degree):
            c = int(cols[i, j])
            while c == i or c in cols[i, :j]:
                c = (c + 1) % nrows
            cols[i, j] = c
    cols_flat = cols.ravel().astype(np.int64)

    values = rng_vals.normal(0.0, 1.0, size=cols_flat.size)
    abs_rowsum = np.abs(values).reshape(nrows, row_degree).sum(axis=1)
    diag = (1.0 + DOMINANCE_MARGIN) * abs_rowsum + 1e-3

    x_true = rng_x.normal(0.0, 1.0, size=nrows)
    # b = A @ x_true computed from the sparse structure.
    b = diag * x_true
    np.add.at(b, rows, values * x_true[cols_flat])

    graph = Graph.from_edges(
        nrows,
        src=cols_flat,   # j -> i so i gathers A[i, j] * x[j] over in-edges
        dst=rows,
        weight=values,
        directed=True,
        dedup=False,     # (i, j) pairs are distinct by construction
        drop_self_loops=False,
        meta={"generator": "matrix", "nrows": nrows,
              "row_degree": row_degree, "seed": seed},
    )
    return ProblemInstance(
        graph=graph,
        domain="matrix",
        inputs={"b": b, "diag": diag, "x_true": x_true},
        params={"nrows": nrows, "row_degree": row_degree, "seed": seed},
    )
