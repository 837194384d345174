"""Blocked, batched ensemble-search engine (DESIGN §15).

The one engine behind :mod:`repro.ensemble.search`. A search that
materializes the full pairwise matrix (``squareform(pdist(pool))`` —
O(n²) float64, ~800 MB at n = 10⁴) and walks beam states in a Python
loop stops scaling near the paper's corpus size; that formulation lives
on in ``tests/ensemble_oracle.py`` as the selection oracle this engine
is tested against. Here instead:

- **Blocked distance kernels** — one :class:`DistanceTiles`: row tiles
  of ``cdist(pool, targets)``, where the targets are the pool itself
  (spread) or the sample cloud (coverage), built on demand through a
  byte-bounded LRU :class:`BlockCache` that counts hits and misses. The
  pool×pool matrix is symmetric bit for bit, so a member's row is its
  column too (DESIGN §15, "Blocked distance kernels"). Tiles and
  scores are float64, and tiles are read-only: a single point's row is
  a view into its tile (:meth:`DistanceTiles.row`), never a copy.
- **Batched beam** — spread's first level ranks only the pairs that
  can reach the beam (a cut from the row maxima), and each later level
  scores every state × candidate in one masked gather-sum per chunk;
  coverage takes, per state and tile, one contiguous min+sum over the
  rows past the state's last member, at the first level as at every
  later one. Every level ends in the same selection step, tie-stable
  (see :func:`tie_sorted`), so results are deterministic across NumPy
  versions and identical to the oracle's.
- **Incremental swap refinement** — per-position replacement scoring
  reuses a maintained column-sum (spread) or per-sample first/second
  minimum (coverage) instead of recomputing ``D[others].min(axis=0)``
  from scratch for every position. Coverage still scores every
  candidate per position: one :meth:`DistanceTiles.sweep`, which
  streams the tiles through a cache-sized scratch buffer, until the
  climb reaches its fixed point.
- **Lazy-greedy submodular selection** (coverage only) — CELF-style
  priority queue of stale marginal gains with re-evaluation on pop;
  coverage is monotone submodular, so the greedy pick carries the
  classic ``(1 − 1/e)`` approximation guarantee.

The engine counts its work in plain attributes — ``states`` scored,
greedy ``reevaluations``, coverage refine ``sweeps``, and the tile
cache's ``hits`` / ``misses`` —
and the ``ensemble_search`` span around each search puts what that
search added on its event (:mod:`repro.ensemble.search`).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import concat_ranges
from repro.behavior.space import BehaviorSpace

#: Default distance-tile size. 32 MiB keeps a tile comfortably inside
#: L3 on server parts while amortizing the Python dispatch per tile.
DEFAULT_BLOCK_BYTES = 32 << 20

#: Scratch size of :meth:`DistanceTiles.sweep`: each tile streams
#: through one reused buffer this large (16 rows at 4 000 samples, well
#: inside L2) instead of a fresh tile-sized temporary per sweep.
SWEEP_BYTES = 512 << 10

#: Scores closer than this are treated as equal and ordered by index
#: tuple (lexicographically smallest first) — the tie-stability rule
#: shared by the engine and the test oracles.
TIE_TOL = 1e-12

#: Minimum improvement a swap must bring to be accepted (matches the
#: oracle's refinement loop).
SWAP_TOL = 1e-12

# -- tie-stable ordering ----------------------------------------------

def tie_sorted(items: "Sequence[tuple]") -> list:
    """Order ``(score, indices, ...)`` items best-first, tie-stably.

    Primary order is score descending. Scores within :data:`TIE_TOL`
    of the best score of their run ("head-anchored" groups over the
    descending sequence) are considered equal and ordered by their
    index tuple, lexicographically smallest first. The engine and the
    test oracle both rank candidates through this rule, which makes
    results — in particular the top-k sets feeding the Figs 20-21
    frequency analysis — deterministic across NumPy versions.
    """
    ranked = sorted(items, key=lambda it: -it[0])
    out: list = []
    i = 0
    while i < len(ranked):
        head = ranked[i][0]
        g = i + 1
        while g < len(ranked) and head - ranked[g][0] <= TIE_TOL:
            g += 1
        if g - i > 1:
            out.extend(sorted(ranked[i:g], key=lambda it: it[1]))
        else:
            out.append(ranked[i])
        i = g
    return out


def tie_argmax(scores: np.ndarray) -> int:
    """Index of the best score; near-ties go to the smallest index."""
    j_best = int(np.argmax(scores))
    ties = np.flatnonzero(scores >= scores[j_best] - TIE_TOL)
    return int(ties.min())


def boundary_positions(scores: np.ndarray, width: int) -> np.ndarray:
    """Positions that can belong to the tie-stable top ``width``.

    Keeps every entry scoring within :data:`TIE_TOL` of the
    ``width``-th best, so a later tie-stable global ordering over the
    union of per-chunk boundaries selects exactly the same set it
    would have selected over all candidates.
    """
    scores = np.asarray(scores)
    finite = scores > -np.inf
    n_finite = int(np.count_nonzero(finite))
    if n_finite == 0:
        return np.empty(0, dtype=np.intp)
    k = min(width, n_finite)
    cut = np.partition(scores, scores.size - k)[scores.size - k]
    return np.flatnonzero(finite & (scores >= cut - TIE_TOL))


def grouped_top(scores: np.ndarray, parent: np.ndarray, cand: np.ndarray,
                width: int) -> np.ndarray:
    """Tie-stable top-``width`` positions among extension candidates.

    ``parent`` must index states kept in lexicographic tuple order, so
    comparing ``(parent, cand)`` pairs is equivalent to comparing the
    full extended index tuples. Semantics match :func:`tie_sorted`.
    """
    order = np.lexsort((cand, parent, -scores))
    ranked = scores[order]
    # An entry more than TIE_TOL above the next one is a group of its
    # own, already in lexsort order: only heads of near-tie runs loop.
    done = 0
    for i in np.flatnonzero((ranked[:-1] - ranked[1:])[:width] <= TIE_TOL):
        if i < done:
            continue  # inside the previous group
        head = ranked[i]
        g = i + 1
        while g < ranked.size and head - ranked[g] <= TIE_TOL:
            g += 1
        grp = order[i:g]
        order[i:g] = grp[np.lexsort((cand[grp], parent[grp]))]
        done = g
    return order[:width]


# -- blocked distance kernels -----------------------------------------

class BlockCache:
    """Byte-bounded LRU of distance tiles that counts hits and misses.

    At least one tile is always retained so the current consumer never
    sees its block evicted mid-use. Tiles are marked read-only when
    built: consumers hold views into them (:meth:`DistanceTiles.row`),
    and none may write through one into the cache.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget = max(int(budget_bytes), 0)
        self.hits = 0
        self.misses = 0
        self._blocks: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._bytes = 0

    def get(self, key: int,
            build: "Callable[[int], np.ndarray]") -> np.ndarray:
        blk = self._blocks.get(key)
        if blk is not None:
            self._blocks.move_to_end(key)
            self.hits += 1
            return blk
        self.misses += 1
        blk = build(key)
        blk.flags.writeable = False
        self._blocks[key] = blk
        self._bytes += blk.nbytes
        while self._bytes > self.budget and len(self._blocks) > 1:
            _, old = self._blocks.popitem(last=False)
            self._bytes -= old.nbytes
        return blk

    @property
    def cached_bytes(self) -> int:
        return self._bytes


class DistanceTiles:
    """Row tiles of the Euclidean distance matrix ``cdist(X, targets)``.

    Tile ``b`` holds ``dist(X[i0:i1], targets)`` for a contiguous range
    of points sized to ``block_bytes``. Spread tiles the pool against
    itself (``targets`` is ``points``) and coverage tiles it against
    the sample cloud. The pool×pool matrix is symmetric bit for bit
    (DESIGN §15), so a member's distance row doubles as its column.
    """

    def __init__(self, points: np.ndarray, targets: np.ndarray, *,
                 block_bytes: "int | None" = None,
                 cache_bytes: "int | None" = None) -> None:
        self.X = np.ascontiguousarray(points, dtype=np.float64)
        self.targets = np.ascontiguousarray(targets, dtype=np.float64)
        self.n = self.X.shape[0]
        self.m = self.targets.shape[0]
        block_bytes = int(block_bytes or DEFAULT_BLOCK_BYTES)
        if block_bytes < 1:
            raise ValidationError("block_bytes must be >= 1")
        self.row_bytes = max(self.m, 1) * self.X.itemsize
        self.rows_per_block = max(1, block_bytes // self.row_bytes)
        self.n_blocks = -(-max(self.n, 1) // self.rows_per_block)
        self.cache = BlockCache(cache_bytes or 8 * block_bytes)
        self._scratch: "np.ndarray | None" = None

    def _build(self, bid: int) -> np.ndarray:
        from scipy.spatial.distance import cdist

        i0 = bid * self.rows_per_block
        i1 = min(self.n, i0 + self.rows_per_block)
        return cdist(self.X[i0:i1], self.targets)

    def block(self, bid: int) -> "tuple[int, int, np.ndarray]":
        """``(i0, i1, dist(X[i0:i1], targets))`` for tile ``bid``."""
        i0 = bid * self.rows_per_block
        i1 = min(self.n, i0 + self.rows_per_block)
        return i0, i1, self.cache.get(bid, self._build)

    def tiles(self) -> "Iterable[tuple[int, int, np.ndarray]]":
        for bid in range(self.n_blocks):
            yield self.block(bid)

    def row(self, j: int) -> np.ndarray:
        """Read-only view of point ``j``'s distance row."""
        bid, r = divmod(j, self.rows_per_block)
        return self.block(bid)[2][r]

    def sweep(self, op: "Callable[..., np.ndarray]",
              vec: np.ndarray) -> np.ndarray:
        """Per-row sums of ``op(tile_rows, vec)`` over every point.

        ``op`` is a binary ufunc. Each tile streams through one reused
        scratch buffer of :data:`SWEEP_BYTES`, allocated by the first
        sweep; every row is still one contiguous ``sum(axis=1)`` over
        the same ``m`` values, so the sums are bit-identical to
        ``op(tile, vec).sum(axis=1)``.
        """
        if self._scratch is None:
            sweep_rows = max(1, SWEEP_BYTES // self.row_bytes)
            self._scratch = np.empty(
                (min(sweep_rows, self.rows_per_block), self.m))
        out = np.empty(self.n)
        step = self._scratch.shape[0]
        for i0, i1, blk in self.tiles():
            for r0 in range(0, i1 - i0, step):
                r1 = min(i1 - i0, r0 + step)
                buf = self._scratch[:r1 - r0]
                op(blk[r0:r1], vec, out=buf)
                buf.sum(axis=1, out=out[i0 + r0:i0 + r1])
        return out

    def rows(self, idx: "Iterable[int]", *,
             transposed: bool = False) -> np.ndarray:
        """Distance rows of the given points, ``(len(idx), m)``.

        ``transposed`` lays them out ``(m, len(idx))``, filled tile by
        tile: on pool×pool tiles, the member columns ``D[:, idx]``.
        """
        idx = np.asarray(list(idx) if not isinstance(idx, np.ndarray)
                         else idx, dtype=np.intp)
        out = np.empty((self.m, idx.size) if transposed
                       else (idx.size, self.m))
        bids = idx // self.rows_per_block
        for bid in np.unique(bids):
            i0, _, blk = self.block(int(bid))
            sel = np.flatnonzero(bids == bid)
            if transposed:
                out[:, sel] = blk[idx[sel] - i0].T
            else:
                out[sel] = blk[idx[sel] - i0]
        return out


# -- the engine --------------------------------------------------------

class FastEngine:
    """Incremental, batched spread/coverage search over a fixed pool.

    Drop-in scorer behind :func:`repro.ensemble.search.best_ensemble`
    and friends: beam results are selection-identical to the
    tie-stable oracle (``tests/ensemble_oracle.py``).
    """

    def __init__(self, pool: np.ndarray, metric: str, *,
                 space: BehaviorSpace,
                 samples: "np.ndarray | None",
                 n_samples: int,
                 seed: int) -> None:
        if metric not in ("spread", "coverage"):
            raise ValidationError(
                "metric must be one of ('spread', 'coverage')")
        self.metric = metric
        self.pool = np.ascontiguousarray(pool, dtype=np.float64)
        self.n = self.pool.shape[0]
        self.space = space
        self.diam = space.diameter
        targets = self.pool
        if metric == "coverage":
            targets = (space.sample(n_samples, seed=seed) if samples is None
                       else np.asarray(samples, dtype=np.float64))
            if targets.ndim != 2 or targets.shape[1] != space.dims:
                raise ValidationError(
                    f"samples of shape {targets.shape} do not lie in a "
                    f"{space.dims}-dimensional space")
        # Read per engine, not bound as a default, so tests can force
        # small tiles by patching the constant.
        self.block_bytes = DEFAULT_BLOCK_BYTES
        self.dist = DistanceTiles(self.pool, targets,
                                  block_bytes=self.block_bytes)
        self.m = self.dist.m
        #: Work counters, read by the ``ensemble_search`` span around a
        #: search: states scored, greedy gain re-evaluations, and
        #: coverage refine's sweeps over the candidate rows.
        self.states = 0
        self.reevaluations = 0
        self.sweeps = 0

    # -- shared helpers ------------------------------------------------

    def score_indices(self, indices: "Iterable[int]") -> float:
        """From-scratch float64 score of an arbitrary index set."""
        idx = np.asarray(list(indices), dtype=np.intp)
        if self.metric == "spread":
            if idx.size < 2:
                return 0.0
            sub = self.dist.rows(idx)[:, idx]
            return float(sub.sum() / (idx.size * (idx.size - 1)))
        payload = self.dist.rows(idx).min(axis=0)
        return self.diam - float(payload.mean())

    # -- beam ----------------------------------------------------------

    def beam(self, size: int, beam_width: int) -> "list[tuple[float, tuple]]":
        """Tie-stable beam search; returns ``(score, indices)`` states."""
        if size < 1:
            raise ValidationError("size must be >= 1")
        if size > self.n:
            raise ValidationError(f"cannot pick {size} of {self.n} runs")
        if beam_width < 1:
            raise ValidationError("beam_width must be >= 1")
        if size == 1:
            self.states += self.n
            if self.metric == "spread":
                return [(0.0, (i,)) for i in range(self.n)]
            sums = self._coverage_row_sums()
            return [(self.diam - sums[i] / self.m, (i,))
                    for i in range(self.n)]
        if self.metric == "spread":
            return self._beam_spread(size, beam_width)
        return self._beam_coverage(size, beam_width)

    def _select(self, members, found, size, beam_width):
        """Extend ``members`` by the tie-stable top ``beam_width``
        candidates; the new states come out in lexicographic order.

        ``found`` holds ``(scores, parent, cand, *carry)`` tuples, one
        per chunk of a level, that together hold every candidate within
        :data:`TIE_TOL` of the level's ``beam_width``-th best: each
        chunk's :func:`boundary_positions` do, and so does the spread
        first level's cut. ``parent`` indexes ``members``. Returns the
        new members, each new state's parent, and each ``carry`` column
        at the kept candidates.
        """
        if not found:
            raise ValidationError(
                f"pool of {self.n} cannot form an ensemble of size {size}")
        scores, parent, cand, *carry = (np.concatenate(col)
                                        for col in zip(*found))
        top = grouped_top(scores, parent, cand, beam_width)
        top = top[np.lexsort((cand[top], parent[top]))]
        new_members = np.concatenate(
            [members[parent[top]], cand[top, None]], axis=1)
        return (new_members, parent[top], *(col[top] for col in carry))

    # -- spread beam ---------------------------------------------------

    def _beam_spread(self, size, beam_width):
        members, sums = self._level1_spread(size, beam_width)
        for length in range(2, size):
            members, sums = self._extend_spread(members, sums, length,
                                                size, beam_width)
        denom = size * (size - 1)
        return [(2.0 * float(sums[b]) / denom, tuple(int(v) for v in row))
                for b, row in enumerate(members)]

    def _level1_spread(self, size, beam_width):
        """Rank the feasible pairs ``i < j <= j_max`` that can reach
        the beam, off the row tiles.

        Every row ``r <= j_max`` has a farthest partner among the
        columns ``<= j_max``, and a pair is the farthest of at most two
        rows, so at least ``beam_width`` distinct feasible pairs score
        at or above the ``2 * beam_width``-th largest row maximum. No
        pair more than :data:`TIE_TOL` below that cut can enter the
        tie-stable top ``beam_width``: only rows whose maximum reaches
        it are compared, and :meth:`_select` gets every pair at or
        above it. With fewer rows than ``2 * beam_width`` there is no
        such bound and every feasible pair is ranked.
        """
        n = self.n
        j_max = n - size + 1  # highest feasible second member
        self.states += n
        row_max = np.empty(j_max + 1)
        for i0, i1, blk in self.dist.tiles():
            if i0 > j_max:
                break  # this tile and every later one is past j_max
            hi = min(i1, j_max + 1)
            blk[:hi - i0, :j_max + 1].max(axis=1, out=row_max[i0:hi])
        rank = row_max.size - 2 * beam_width
        floor = (np.partition(row_max, rank)[rank] - TIE_TOL if rank >= 0
                 else -np.inf)
        found = []
        # Only the tiles holding a row that reaches the cut are fetched,
        # the last built first: the tile cache still holds those.
        per = self.dist.rows_per_block
        for bid in range((j_max - 1) // per, -1, -1):
            i0 = bid * per
            hi = min(i0 + per, j_max)  # no row from j_max on has a partner
            rows = np.flatnonzero(row_max[i0:hi] >= floor)
            if rows.size == 0:
                continue
            near = self.dist.block(bid)[2][rows, :j_max + 1]
            r, c = np.nonzero((near >= floor)
                              & (np.arange(j_max + 1) > (i0 + rows)[:, None]))
            dists = near[r, c]
            found.append((dists, i0 + rows[r], c, dists))
        members, _, sums = self._select(np.arange(n)[:, None], found,
                                        size, beam_width)
        return members, sums

    def _extend_spread(self, members, sums, length, size, beam_width):
        """Score every state × candidate in one batched gather-sum."""
        n = self.n
        n_states = members.shape[0]
        self.states += n_states
        uniq, inverse = np.unique(members, return_inverse=True)
        cols = inverse.reshape(members.shape).astype(np.intp)
        dist_u = self.dist.rows(uniq, transposed=True)  # (n, u)
        j_max = n - size + length  # feasibility bound for the next pick
        last = members[:, -1]
        k = length + 1
        norm = 2.0 / (k * (k - 1))
        row_bytes = max(1, n_states * length * 8)
        chunk = max(1, self.block_bytes // row_bytes)
        found = []
        for r0 in range(0, n, chunk):
            r1 = min(n, r0 + chunk)
            # adds[c, b] = Σ_l dist(candidate c, member l of state b)
            adds = dist_u[r0:r1][:, cols].sum(axis=2)
            totals = adds + sums[None, :]
            cand = np.arange(r0, r1)
            feasible = (cand[:, None] > last[None, :]) \
                & (cand[:, None] <= j_max)
            # select on *normalized* scores so the tie tolerance acts
            # on the same scale as the oracle
            scores = np.where(feasible, norm * totals, -np.inf)
            keep = boundary_positions(scores.ravel(), beam_width)
            if keep.size == 0:
                continue
            found.append((scores.ravel()[keep], keep % n_states,
                          cand[keep // n_states], totals.ravel()[keep]))
        new_members, _, new_sums = self._select(members, found, size,
                                                beam_width)
        return new_members, new_sums

    # -- coverage beam -------------------------------------------------

    def _coverage_row_sums(self) -> np.ndarray:
        sums = np.empty(self.n)
        for i0, i1, blk in self.dist.tiles():
            sums[i0:i1] = blk.sum(axis=1)
        return sums

    def _beam_coverage(self, size, beam_width):
        # every level, the first included, is the same extension step;
        # it starts from the n singleton states
        members, payloads = np.arange(self.n)[:, None], None
        for length in range(1, size):
            members, payloads = self._extend_coverage(
                members, payloads, length, size, beam_width)
        sums = payloads.sum(axis=1)
        return [(self.diam - float(sums[b]) / self.m,
                 tuple(int(v) for v in row))
                for b, row in enumerate(members)]

    def _extend_coverage(self, members, payloads, length, size, beam_width):
        """Score each state against the candidates past its last member.

        Per state and tile that is one contiguous min+sum over the
        tile's feasible rows only. ``payloads`` is ``None`` on the
        singleton level, where a state's payload is its own distance
        row, read from the tiles as the level goes.
        """
        self.states += members.shape[0]
        j_max = self.n - size + length  # feasibility bound for the next pick
        last = members[:, -1]

        def payload(b):
            return self.dist.row(members[b, 0]) if payloads is None \
                else payloads[b]

        found = []
        for i0, i1, blk in self.dist.tiles():
            hi = min(i1, j_max + 1)
            if hi <= i0:
                break  # this tile and every later one is past j_max
            live = np.flatnonzero(last + 1 < hi)
            if live.size == 0:
                continue
            lo = np.maximum(last[live] + 1, i0)
            sums = [np.minimum(blk[first - i0:hi - i0], payload(b)).sum(axis=1)
                    for first, b in zip(lo, live)]
            scores = self.diam - np.concatenate(sums) / self.m
            keep = boundary_positions(scores, beam_width)
            b_arr = np.repeat(live, hi - lo)[keep]
            c_arr = concat_ranges(lo, np.full_like(lo, hi))[keep]
            found.append((scores[keep], b_arr, c_arr))
        new_members, parents = self._select(members, found, size,
                                            beam_width)
        new_payloads = np.minimum([payload(b) for b in parents],
                                  self.dist.rows(new_members[:, -1]))
        return new_members, new_payloads

    # -- swap refinement ----------------------------------------------

    def refine(self, indices: "Iterable[int]",
               max_passes: int = 8) -> "tuple[tuple[int, ...], float]":
        """Incremental hill-climb by single-member swaps (tie-stable)."""
        if self.metric == "spread":
            return self._refine_spread(tuple(indices), max_passes)
        return self._refine_coverage(tuple(indices), max_passes)

    def _refine_spread(self, indices, max_passes):
        current = list(indices)
        k = len(current)
        best_score = self.score_indices(current)
        if k < 2:
            return tuple(sorted(current)), best_score
        denom = k * (k - 1)
        for _ in range(max_passes):
            improved = False
            cols = self.dist.rows(current, transposed=True)  # (n, k)
            colsum = cols.sum(axis=1)
            pairsum = float(cols[current].sum()) / 2.0
            for pos in range(k):
                r = current[pos]
                base = pairsum - float(colsum[r])
                adds = colsum - cols[:, pos]
                scores = 2.0 * (base + adds) / denom
                scores[current] = -np.inf
                j = tie_argmax(scores)
                if scores[j] > best_score + SWAP_TOL:
                    new_col = self.dist.row(j)
                    pairsum = base + float(adds[j])
                    colsum += new_col - cols[:, pos]
                    cols[:, pos] = new_col
                    current[pos] = j
                    best_score = float(scores[j])
                    improved = True
            if not improved:
                break
        return tuple(sorted(current)), best_score

    def _refine_coverage(self, indices, max_passes):
        current = list(indices)
        k = len(current)
        rows = self.dist.rows(current)

        def minima():
            """Per sample: the nearest member's distance and position,
            and the distance to the runner-up (inf for one member)."""
            min1, arg1 = rows.min(axis=0), rows.argmin(axis=0)
            if k == 1:
                return min1, arg1, np.full(self.m, np.inf)
            masked = rows.copy()
            masked[arg1, np.arange(self.m)] = np.inf
            return min1, arg1, masked.min(axis=0)

        min1, arg1, min2 = minima()
        best_score = self.diam - float(min1.mean())
        # A position's payload is a min over the other members' rows,
        # exact, so re-scoring it while they are unchanged repeats its
        # last sweep, which rejected or accepted the member it now
        # holds: the climb is at its fixed point once every other
        # position has rejected since the last accept (every position,
        # before any accept).
        settled, stop = 0, k
        for _ in range(max_passes):
            for pos in range(k):
                if settled == stop:
                    return tuple(sorted(current)), best_score
                # second-minimum update: the payload without this
                # member is min2 wherever this member held the minimum
                without = np.where(arg1 == pos, min2, min1)
                sums = self.dist.sweep(np.minimum, without)
                self.sweeps += 1
                scores = self.diam - sums / self.m
                scores[current] = -np.inf
                j = tie_argmax(scores)
                if scores[j] > best_score + SWAP_TOL:
                    current[pos] = j
                    rows[pos] = self.dist.row(j)
                    min1, arg1, min2 = minima()
                    best_score = float(scores[j])
                    settled, stop = 0, k - 1
                else:
                    settled += 1
        return tuple(sorted(current)), best_score

    # -- lazy-greedy submodular selection (coverage) -------------------

    def greedy(self, size: int) -> "tuple[tuple[int, ...], float]":
        """CELF lazy-greedy coverage maximization.

        Coverage ``f(S) = diam − mean_s min_{i∈S} d(s, i)`` equals the
        facility-location objective ``mean_s (diam − min d)`` (every
        distance is bounded by the space diameter), which is monotone
        submodular with ``f(∅) = 0`` — so the greedy sequence satisfies
        ``f(greedy_k) ≥ (1 − 1/e) · f(opt_k)`` at every prefix ``k``.
        Marginal gains are kept in a priority queue and only
        re-evaluated when popped with a stale generation stamp.
        """
        if self.metric != "coverage":
            raise ValidationError(
                "lazy-greedy selection applies to the coverage metric")
        if size < 1:
            raise ValidationError("size must be >= 1")
        if size > self.n:
            raise ValidationError(f"cannot pick {size} of {self.n} runs")
        sums = self._coverage_row_sums()
        gains = self.diam - sums / self.m
        heap = [(-gains[j], j, 0) for j in range(self.n)]
        heapq.heapify(heap)
        selected: list[int] = []
        payload: "np.ndarray | None" = None
        while len(selected) < size:
            reevals = 0
            while True:
                neg_gain, j, stamp = heapq.heappop(heap)
                if stamp == len(selected):
                    break
                row = self.dist.row(j)
                gain = float(np.maximum(payload - row, 0.0).sum()) / self.m
                reevals += 1
                heapq.heappush(heap, (-gain, j, len(selected)))
            row = self.dist.row(j)
            payload = row if payload is None \
                else np.minimum(payload, row)
            selected.append(j)
            self.states += 1 + reevals
            self.reevaluations += reevals
        score = self.diam - float(payload.mean())
        return tuple(sorted(selected)), score
