"""Graph file I/O: whitespace edge lists and the UAI MRF format.

The paper's Dual Decomposition inputs are Markov Random Field graphs in
the standard UAI file format (Section 3.2, downloaded from PIC2011). We
implement a reader/writer for the pairwise-MRF subset of UAI so the
synthetic MRF generator round-trips through the same on-disk format the
paper consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._util.errors import ValidationError
from repro.graph.csr import Graph


# ----------------------------------------------------------------------
# Edge lists
# ----------------------------------------------------------------------

def write_edge_list(graph: Graph, path: str | Path, *,
                    header: bool = True) -> None:
    """Write a graph as ``src dst [weight]`` lines.

    Undirected edges are written once (canonical ``lo hi`` orientation).
    """
    path = Path(path)
    src, dst = graph.edge_endpoints()
    with path.open("w", encoding="utf-8") as fh:
        if header:
            kind = "directed" if graph.directed else "undirected"
            fh.write(f"# repro edge list: {kind} "
                     f"n_vertices={graph.n_vertices} "
                     f"n_edges={graph.n_edges}\n")
        if graph.edge_weight is None:
            for u, v in zip(src.tolist(), dst.tolist()):
                fh.write(f"{u} {v}\n")
        else:
            for u, v, w in zip(src.tolist(), dst.tolist(),
                               graph.edge_weight.tolist()):
                fh.write(f"{u} {v} {w!r}\n")


def read_edge_list(
    path: str | Path,
    *,
    n_vertices: int | None = None,
    directed: bool = False,
) -> Graph:
    """Read a ``src dst [weight]`` edge list written by
    :func:`write_edge_list`.

    Lines starting with ``#`` are comments; the header comment's
    ``n_vertices`` is honored unless overridden by the argument.

    The header's declared ``n_vertices``/``n_edges`` are validated
    against what was actually parsed: a truncated copy (fewer edge
    lines than declared) or an out-of-range vertex id raises
    :class:`ValidationError` instead of silently yielding a smaller
    graph.
    """
    path = Path(path)
    srcs: list[int] = []
    dsts: list[int] = []
    weights: list[float] = []
    header_n: int | None = None
    header_m: int | None = None
    header_directed: bool | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("n_vertices="):
                        header_n = int(token.partition("=")[2])
                    elif token.startswith("n_edges="):
                        header_m = int(token.partition("=")[2])
                    elif token in ("directed", "undirected"):
                        header_directed = token == "directed"
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValidationError(
                    f"{path}:{lineno}: expected 'src dst [weight]', "
                    f"got {line!r}"
                )
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            if len(parts) == 3:
                weights.append(float(parts[2]))
    if weights and len(weights) != len(srcs):
        raise ValidationError(f"{path}: mixed weighted and unweighted lines")
    if header_m is not None and header_m != len(srcs):
        raise ValidationError(
            f"{path}: header declares n_edges={header_m} but {len(srcs)} "
            f"edge line(s) were parsed — truncated or corrupted file")
    n = n_vertices if n_vertices is not None else header_n
    if n is None:
        n = (max(max(srcs, default=-1), max(dsts, default=-1)) + 1) or 1
    else:
        peak = max(max(srcs, default=-1), max(dsts, default=-1))
        low = min(min(srcs, default=0), min(dsts, default=0))
        if peak >= n or low < 0:
            raise ValidationError(
                f"{path}: vertex id range [{low}, {peak}] outside the "
                f"declared n_vertices={n}")
    if header_directed is not None and n_vertices is None:
        directed = header_directed
    return Graph.from_edges(
        n,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        weight=np.asarray(weights) if weights else None,
        directed=directed,
        meta={"source": str(path)},
    )


# ----------------------------------------------------------------------
# UAI pairwise Markov Random Fields
# ----------------------------------------------------------------------

@dataclass
class PairwiseMRF:
    """A pairwise Markov Random Field as stored in UAI files.

    Attributes
    ----------
    cardinalities:
        Number of states of each variable (all equal for our generator,
        but arbitrary UAI files are supported).
    unary:
        ``unary[i]`` — potential table of variable ``i``, shape ``(card_i,)``.
    pair_vars:
        ``(n_pair, 2)`` int array of variable index pairs, one per
        pairwise factor.
    pair_tables:
        List of ``(card_u, card_v)`` potential tables aligned with
        ``pair_vars``.
    """

    cardinalities: np.ndarray
    unary: list[np.ndarray]
    pair_vars: np.ndarray
    pair_tables: list[np.ndarray] = field(repr=False)

    @property
    def n_variables(self) -> int:
        return int(self.cardinalities.size)

    @property
    def n_pairwise(self) -> int:
        return int(self.pair_vars.shape[0])

    def to_graph(self) -> Graph:
        """The MRF's variable-interaction graph (undirected, unweighted)."""
        return Graph.from_edges(
            self.n_variables,
            self.pair_vars[:, 0],
            self.pair_vars[:, 1],
            directed=False,
            meta={"source": "mrf", "n_pairwise": self.n_pairwise},
        )

    def validate(self) -> None:
        """Check table shapes; raise :class:`ValidationError` on mismatch."""
        if len(self.unary) != self.n_variables:
            raise ValidationError("one unary table per variable required")
        for i, table in enumerate(self.unary):
            if table.shape != (self.cardinalities[i],):
                raise ValidationError(f"unary table {i} has shape "
                                      f"{table.shape}, expected "
                                      f"({self.cardinalities[i]},)")
        if self.pair_vars.shape != (len(self.pair_tables), 2):
            raise ValidationError("pair_vars must align with pair_tables")
        for k, (u, v) in enumerate(self.pair_vars):
            expect = (self.cardinalities[u], self.cardinalities[v])
            if self.pair_tables[k].shape != tuple(expect):
                raise ValidationError(
                    f"pairwise table {k} has shape "
                    f"{self.pair_tables[k].shape}, expected {expect}"
                )


def write_uai(mrf: PairwiseMRF, path: str | Path) -> None:
    """Write a pairwise MRF in UAI format (MARKOV preamble)."""
    mrf.validate()
    path = Path(path)
    lines: list[str] = ["MARKOV"]
    lines.append(str(mrf.n_variables))
    lines.append(" ".join(str(int(c)) for c in mrf.cardinalities))
    n_factors = mrf.n_variables + mrf.n_pairwise
    lines.append(str(n_factors))
    for i in range(mrf.n_variables):
        lines.append(f"1 {i}")
    for u, v in mrf.pair_vars:
        lines.append(f"2 {u} {v}")
    for i in range(mrf.n_variables):
        table = mrf.unary[i]
        lines.append(str(table.size))
        lines.append(" ".join(f"{x:.10g}" for x in table.ravel()))
    for table in mrf.pair_tables:
        lines.append(str(table.size))
        lines.append(" ".join(f"{x:.10g}" for x in table.ravel()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_uai(path: str | Path) -> PairwiseMRF:
    """Read a pairwise MRF from a UAI file.

    Only unary and pairwise factors are supported (the subset Dual
    Decomposition consumes); higher-order factors raise
    :class:`ValidationError`. Truncated files (fewer tokens than the
    declared variable/factor/table counts require), out-of-range
    variable indices, and trailing garbage all raise
    :class:`ValidationError` rather than yielding a smaller MRF.
    """
    path = Path(path)
    tokens = path.read_text(encoding="utf-8").split()
    pos = 0

    def take(count: int = 1) -> list[str]:
        nonlocal pos
        if pos + count > len(tokens):
            raise ValidationError(f"{path}: truncated UAI file")
        out = tokens[pos:pos + count]
        pos += count
        return out

    kind = take()[0].upper()
    if kind != "MARKOV":
        raise ValidationError(
            f"{path}: expected MARKOV preamble, got {kind!r}")
    n_vars = int(take()[0])
    cards = np.asarray([int(t) for t in take(n_vars)], dtype=np.int64)
    n_factors = int(take()[0])
    scopes: list[list[int]] = []
    for _ in range(n_factors):
        arity = int(take()[0])
        if arity not in (1, 2):
            raise ValidationError(
                f"{path}: only pairwise MRFs supported, "
                f"got factor arity {arity}"
            )
        scope = [int(t) for t in take(arity)]
        if any(i < 0 or i >= n_vars for i in scope):
            raise ValidationError(
                f"{path}: factor scope {scope} references a variable "
                f"outside the declared {n_vars} variables")
        scopes.append(scope)

    unary: dict[int, np.ndarray] = {}
    pair_vars: list[tuple[int, int]] = []
    pair_tables: list[np.ndarray] = []
    for scope in scopes:
        size = int(take()[0])
        values = np.asarray([float(t) for t in take(size)])
        if len(scope) == 1:
            (i,) = scope
            if size != cards[i]:
                raise ValidationError(f"{path}: unary table size mismatch for "
                                      f"variable {i}")
            unary[i] = values
        else:
            u, v = scope
            if size != cards[u] * cards[v]:
                raise ValidationError(f"{path}: pairwise table size mismatch "
                                      f"for ({u}, {v})")
            pair_vars.append((u, v))
            pair_tables.append(values.reshape(cards[u], cards[v]))

    if pos != len(tokens):
        raise ValidationError(
            f"{path}: {len(tokens) - pos} unexpected trailing token(s) "
            f"after the last declared factor table — factor count and "
            f"content disagree")
    for i in range(n_vars):
        unary.setdefault(i, np.zeros(cards[i]))
    mrf = PairwiseMRF(
        cardinalities=cards,
        unary=[unary[i] for i in range(n_vars)],
        pair_vars=np.asarray(pair_vars, dtype=np.int64).reshape(-1, 2),
        pair_tables=pair_tables,
    )
    mrf.validate()
    return mrf
