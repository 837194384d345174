"""Vectorized segment operations over CSR-style index ranges.

These are the hot kernels behind the Gather phase of the GAS engine:
given a partial frontier's per-vertex adjacency ranges in a CSR
structure, we need (a) the concatenation of all adjacency slots
(``concat_ranges``) and (b) a per-vertex reduction over per-edge values
(``segmented_reduce``), both without Python-level loops; and behind
every frontier the engine builds, (c) the sorted set of a batch of
vertex ids (``sorted_unique_ids``). Graph construction's one dedup
rule, (d) ``first_occurrences``, sits beside it.

``np.ufunc.reduceat`` has two sharp edges that this module papers over:

* an *empty* segment does not reduce to the identity — it returns the
  element at the segment's start index;
* a segment starting at ``len(values)`` raises.

``segmented_reduce`` therefore masks empty segments explicitly and fills
them with the reduction identity.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError

#: Identity element per supported reduction, used to fill empty segments.
REDUCE_IDENTITY: dict[str, float] = {
    "sum": 0.0,
    "min": np.inf,
    "max": -np.inf,
    "or": 0,  # bitwise OR on integer payloads (Approximate Diameter)
}

#: The ufunc behind each reduction — the one table every reducer
#: (``reduceat`` here and in the engine kernels, ``ufunc.at`` in the
#: edge-centric stream) draws from.
REDUCE_UFUNC: dict[str, np.ufunc] = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
    "or": np.bitwise_or,
}


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges ``[starts[i], ends[i])`` into one index
    array.

    Equivalent to ``np.concatenate([np.arange(s, e) for s, e in
    zip(starts, ends)])`` but fully vectorized.

    Parameters
    ----------
    starts, ends:
        Integer arrays of equal length with ``ends >= starts`` elementwise.

    Returns
    -------
    np.ndarray
        int64 array of length ``(ends - starts).sum()``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape or starts.ndim != 1:
        raise ValidationError(
            f"starts/ends must be equal-length 1-D arrays, got shapes "
            f"{starts.shape} and {ends.shape}"
        )
    if np.any(ends < starts):
        raise ValidationError("every range must satisfy end >= start")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Output slot t of range i, which begins at global offset o_i, is
    # starts[i] + (t - o_i): np.arange(total) plus the range's shift
    # starts[i] - o_i, repeated over its slots.
    shifts = starts - (np.cumsum(counts) - counts)
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(shifts, counts)
    return out


def sorted_unique_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """The distinct values of ``ids``, ascending: ``np.unique(ids)`` as
    a fresh int64 array, for integer ids the caller knows lie in
    ``[0, n)`` — a negative id would wrap in the flag scatter and one
    ``>= n`` raise ``IndexError``, so validate first
    (``engine.loop.canonical_frontier`` does).

    Knowing the range is what makes it cheap: a flag scatter over
    ``[0, n)`` and ``flatnonzero`` — linear in ``n + ids.size``, no
    hashing, no sort. Sorting is faster below ``n / 8`` ids, but the
    callers run once per engine step (graph-centric: per partition
    sweep) beside passes over whole per-vertex arrays, and a second
    mechanism moved no workload (DESIGN §13).
    """
    flags = np.zeros(n, dtype=bool)
    flags[np.asarray(ids)] = True
    return np.flatnonzero(flags).astype(np.int64, copy=False)


def first_occurrences(key: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of every distinct
    value of ``key``: ``np.sort(np.unique(key, return_index=True)[1])``.

    ``key[first_occurrences(key)]`` is ``key`` deduplicated in input
    order with the first occurrence winning — the one dedup rule of
    graph construction (DESIGN §5). One stable sort; the positions come
    back ordered from a flag scatter, not a second sort.
    """
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    leads = np.ones(key.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=leads[1:])
    return sorted_unique_ids(order[leads], key.size)


def segment_offsets(counts: np.ndarray) -> np.ndarray:
    """Return the start offset of each segment given per-segment counts.

    ``offsets[i] = counts[:i].sum()``; suitable as the ``indices``
    argument of ``np.ufunc.reduceat`` (modulo empty-segment handling,
    which :func:`segmented_reduce` performs).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValidationError("counts must be 1-D")
    if np.any(counts < 0):
        raise ValidationError("counts must be non-negative")
    offsets = np.empty(counts.size, dtype=np.int64)
    if counts.size:
        offsets[0] = 0
        np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


def segmented_reduce(
    values: np.ndarray,
    counts: np.ndarray,
    op: str = "sum",
    *,
    identity: float | None = None,
) -> np.ndarray:
    """Reduce consecutive segments of ``values`` with the given operation.

    ``values`` is the concatenation of segments whose lengths are given
    by ``counts``. Supports 1-D values (result shape ``(len(counts),)``)
    and 2-D values of shape ``(total, width)`` (result
    ``(len(counts), width)``, reduced along axis 0 per segment).

    Empty segments reduce to ``identity`` (default: the natural identity
    of ``op`` from :data:`REDUCE_IDENTITY`).

    Parameters
    ----------
    values:
        Array of shape ``(counts.sum(),)`` or ``(counts.sum(), width)``.
    counts:
        Non-negative int array; segment lengths.
    op:
        One of ``"sum"``, ``"min"``, ``"max"``.
    identity:
        Fill value for empty segments; defaults per ``op``.
    """
    if op not in REDUCE_UFUNC:
        raise ValidationError(f"unsupported reduction {op!r}; "
                              f"expected one of {sorted(REDUCE_UFUNC)}")
    counts = np.asarray(counts, dtype=np.int64)
    values = np.asarray(values)
    total = int(counts.sum())
    if values.shape[0] != total:
        raise ValidationError(
            f"values has {values.shape[0]} rows but counts sum to {total}"
        )
    fill = REDUCE_IDENTITY[op] if identity is None else identity
    out_shape = ((counts.size,) if values.ndim == 1
                 else (counts.size, values.shape[1]))
    dtype = (np.result_type(values.dtype, np.float64)
             if values.dtype.kind == "f" else values.dtype)
    out = np.full(out_shape, fill, dtype=dtype)
    if counts.size == 0 or total == 0:
        return out

    nonempty = counts > 0
    if np.all(nonempty):
        offsets = segment_offsets(counts)
        out[:] = REDUCE_UFUNC[op].reduceat(values, offsets, axis=0)
        return out

    # Reduce only the non-empty segments; empty ones keep the identity.
    ne_counts = counts[nonempty]
    offsets = segment_offsets(ne_counts)
    reduced = REDUCE_UFUNC[op].reduceat(values, offsets, axis=0)
    out[nonempty] = reduced
    return out
