"""The one edge-sampling loop: draw, dedup, redraw until enough.

A random generator states only how one batch of candidate pairs is
drawn — a ``draw(batch)`` closure over its own RNG streams, self-loops
dropped and undirected pairs canonicalised ``(lo, hi)`` there;
:func:`distinct_pairs` owns the rest (DESIGN §5).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._util.errors import GraphConstructionError
from repro._util.segments import first_occurrences

#: Redraw rounds before the target counts as unreachable.
MAX_REDRAW_ROUNDS = 60

#: Acceptable relative shortfall of the final pair count — the paper's
#: "slight variation" (§3.2), on the edge side.
EDGE_TOLERANCE = 0.02

#: Smallest batch drawn, however few pairs are still missing.
_MIN_BATCH = 1024


def distinct_pairs(
    draw: Callable[[int], "tuple[np.ndarray, np.ndarray]"],
    need: int,
    width: int,
    *,
    oversample: float = 1.25,
) -> "tuple[np.ndarray, np.ndarray]":
    """``need`` distinct ``(u, v)`` pairs from ``draw``, in the order
    they were first drawn.

    ``draw(batch)`` returns up to ``batch`` candidate pairs as two
    int64 arrays with ``0 <= v < width``; two pairs are the same when
    their keys ``u * width + v`` are. Each round asks for the pairs
    still missing times ``oversample``, to absorb what dedup will
    drop. Raises :class:`GraphConstructionError` when
    :data:`MAX_REDRAW_ROUNDS` rounds leave more than
    :data:`EDGE_TOLERANCE` of ``need`` missing.
    """
    none = np.empty(0, dtype=np.int64)
    us, vs, keys = [none], [none], [none]
    missing = need
    for _ in range(MAX_REDRAW_ROUNDS):
        if missing <= 0:
            break
        u, v = draw(max(_MIN_BATCH, int(missing * oversample)))
        key = u * np.int64(width) + v
        keep = first_occurrences(key)
        if missing < need:  # a later round: drop what earlier ones kept
            seen, kept = np.sort(np.concatenate(keys)), key[keep]
            at = np.minimum(np.searchsorted(seen, kept), seen.size - 1)
            keep = keep[seen[at] != kept]
        keep = keep[:missing]
        us.append(u[keep])
        vs.append(v[keep])
        keys.append(key[keep])
        missing -= keep.size
    if missing > EDGE_TOLERANCE * need:
        raise GraphConstructionError(
            f"could not reach {need} distinct pairs (got {need - missing}) "
            f"in {MAX_REDRAW_ROUNDS} redraw rounds; the endpoint "
            f"distribution may be too concentrated")
    return np.concatenate(us), np.concatenate(vs)
