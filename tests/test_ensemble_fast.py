"""Property tests for the fast ensemble-search engine.

The fast engine's contract (DESIGN §15) is checked here from three
angles: selection parity with the tie-stable oracle the search used
to ship as its ``legacy`` engine (``tests/ensemble_oracle.py``) —
for the beam and for the lazy-greedy selector against the oracle's
plain greedy —, the (1 - 1/e) lazy-greedy guarantee against
exhaustive optima, and the blocked-kernel plumbing (LRU byte bound,
hit/miss accounting, read-only tiles, the streamed sweep's bit
identity).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace, BehaviorVector
from repro.ensemble import fast as fast_mod
from repro.ensemble.fast import (
    BlockCache,
    DistanceTiles,
    FastEngine,
    boundary_positions,
    grouped_top,
    tie_sorted,
)
from repro.ensemble.metrics import coverage, spread
from repro.ensemble.search import best_ensemble, top_k_ensembles
from tests.ensemble_oracle import Oracle, exhaustive_best

SPACE = BehaviorSpace()
#: One fixed sample cloud for every coverage comparison in this file —
#: engine and oracle must see identical samples for scores to agree.
SAMPLES = SPACE.sample(400, seed=0)


def make_pool(coords) -> list[BehaviorVector]:
    return [BehaviorVector(*c, tag=("a", 1, 2.0)) for c in coords]


#: Continuous coordinates: generic pools.
unit = st.floats(0.0, 1.0, allow_nan=False, width=32)
#: Coarse grid coordinates: heavy tie pressure (many equal distances).
grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def pools(coord, min_size=6, max_size=14):
    return st.lists(st.tuples(coord, coord, coord, coord),
                    min_size=min_size, max_size=max_size)


#: Tile budgets for the parity suites: the default (one tile) and
#: three that split these pools' pairwise columns, sample rows and the
#: chunked spread extension into several tiles each.
block_budgets = st.sampled_from([None, 160, 3200, 7000])


def assert_matches_oracle(pool, size, metric, block_bytes=None, **search):
    """Identical index tuple, score equal to 1e-9, with the engine's
    tiles of ``block_bytes`` (None: the default). Patched with
    ``mock`` rather than ``monkeypatch``: hypothesis re-enters a test
    body many times under one function-scoped fixture."""
    budget = block_bytes or fast_mod.DEFAULT_BLOCK_BYTES
    with mock.patch.object(fast_mod, "DEFAULT_BLOCK_BYTES", budget):
        fast = best_ensemble(pool, size, metric, samples=SAMPLES, **search)
    oracle = Oracle(pool, metric, samples=SAMPLES).best(size, **search)
    assert fast.indices == oracle.indices
    assert fast.score == pytest.approx(oracle.score, abs=1e-9)


class TestFastMatchesLegacy:
    """The engine and the oracle (``tests/ensemble_oracle.py``, the
    former ``legacy`` engine) pick identical ensembles with scores
    equal to 1e-9 — on generic pools, under maximal tie pressure,
    across tile boundaries and at the feasibility edge."""

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    @given(coords=pools(unit), size=st.integers(2, 5),
           block_bytes=block_budgets)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generic_pools(self, coords, size, block_bytes, metric):
        pool = make_pool(coords)
        assert_matches_oracle(pool, min(size, len(pool)), metric,
                              block_bytes=block_bytes)

    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    @given(coords=pools(grid), size=st.integers(2, 4),
           block_bytes=block_budgets)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tie_heavy_pools(self, coords, size, block_bytes, metric):
        pool = make_pool(coords)
        assert_matches_oracle(pool, min(size, len(pool)), metric,
                              block_bytes=block_bytes)

    @pytest.mark.parametrize("block_bytes", [3000, 3416, 20000])
    @pytest.mark.parametrize("metric", ["spread", "coverage"])
    def test_across_tiles_to_the_feasibility_edge(self, metric,
                                                  block_bytes):
        """Every beam level spans several multi-row tiles, and sizes
        ``n − 1`` / ``n`` leave n / one feasible ensemble: a beam
        narrower than n only gets there if each level keeps nothing
        but states that can still reach the size."""
        rng = np.random.default_rng(5)
        pool = make_pool(rng.random((61, 4)))
        mat = SPACE.to_matrix(pool)
        assert DistanceTiles(mat, mat, block_bytes=block_bytes).n_blocks > 1
        assert DistanceTiles(mat, SAMPLES,
                             block_bytes=block_bytes).n_blocks > 1
        for size in (2, 3, 7, 60, 61):
            for beam_width in (64, 9):
                assert_matches_oracle(pool, size, metric,
                                      block_bytes=block_bytes,
                                      beam_width=beam_width)

    @given(coords=pools(unit, min_size=8, max_size=12))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_score_matches_metric_recompute(self, coords):
        pool = make_pool(coords)
        res = best_ensemble(pool, 4, "spread")
        assert res.score == pytest.approx(spread(res.ensemble), rel=1e-9)
        cov = best_ensemble(pool, 4, "coverage", samples=SAMPLES)
        assert cov.score == pytest.approx(
            coverage(cov.ensemble, samples=SAMPLES), rel=1e-9)


@pytest.fixture(scope="module")
def smoke_pool() -> list[BehaviorVector]:
    """The 43 vectors of one exponent of the smoke plan (44 cells, the
    by-design diameter failure among them)."""
    import dataclasses

    from repro.experiments.corpus import build_corpus
    from repro.experiments.config import get_profile

    profile = dataclasses.replace(get_profile("smoke"), alphas=(2.5,))
    return build_corpus(profile, use_cache=False).vectors(scheme="max")


def assert_top_k_matches_oracle(pool, size, k, beam_width,
                                block_bytes=None):
    budget = block_bytes or fast_mod.DEFAULT_BLOCK_BYTES
    with mock.patch.object(fast_mod, "DEFAULT_BLOCK_BYTES", budget):
        fast = top_k_ensembles(pool, size, "spread", k=k,
                               beam_width=beam_width)
    oracle = Oracle(pool, "spread").top_k(size, k, beam_width)
    assert [r.indices for r in fast] == [o.indices for o in oracle]
    assert [r.score for r in fast] == pytest.approx(
        [o.score for o in oracle], abs=1e-9)


class TestSpreadFirstLevelCut:
    """The spread beam's first level ranks only the pairs at or above
    the ``2 * beam_width``-th largest row maximum, less ``TIE_TOL``,
    and every feasible pair when fewer rows exist. Each case below
    keeps the oracle's selection only if that cut is a true lower
    bound on the beam's last pair and ties at it survive."""

    def test_fewer_rows_than_twice_the_beam(self, smoke_pool):
        """43 vectors, beam 400: 800 rows would be needed for a cut,
        so every feasible pair is ranked. A cut taken anyway, at the
        smallest row maximum, would drop pairs the beam keeps."""
        assert len(smoke_pool) == 43
        assert_top_k_matches_oracle(smoke_pool, 4, 100, 400)
        rng = np.random.default_rng(11)
        pool = make_pool(rng.random((40, 4)))
        assert_top_k_matches_oracle(pool, 3, 60, 64)
        for size in (2, 5, 39):
            assert_matches_oracle(pool, size, "spread")

    @pytest.mark.parametrize("block_bytes", [None, 150 * 8 * 7])
    def test_duplicate_only_pool(self, block_bytes):
        """Every distance is 0: every pair ties at the cut, and the
        beam holds the lexicographically smallest tuples."""
        pool = make_pool([(0.25, 0.5, 0.75, 1.0)] * 150)
        for size in (2, 3, 5):
            assert_matches_oracle(pool, size, "spread",
                                  block_bytes=block_bytes, beam_width=64)
        assert_top_k_matches_oracle(pool, 3, 20, 64,
                                    block_bytes=block_bytes)

    @pytest.mark.parametrize("block_bytes", [None, 90 * 8 * 5])
    def test_tie_lattice(self, block_bytes):
        """Coordinates in thirds: a few distinct distances, each shared
        by many pairs, so the cut lands inside a run of ties."""
        rng = np.random.default_rng(2)
        pool = make_pool(rng.integers(0, 4, (90, 4)) / 3.0)
        for beam_width in (4, 16):
            for size in (2, 3, 5):
                assert_matches_oracle(pool, size, "spread",
                                      block_bytes=block_bytes,
                                      beam_width=beam_width)
            assert_top_k_matches_oracle(pool, 3, beam_width, beam_width,
                                        block_bytes=block_bytes)

    def test_a_tie_just_below_the_cut(self):
        """Four antipodal pairs 0.8 apart set the cut; the pair (0, 1)
        is 5e-13 shorter, so it ties with them and, being the
        lexicographically smallest, leads the beam of 4."""
        r = 0.4
        axes = np.eye(4)
        diagonal = np.full(4, 0.5)
        coords = [0.5 + (r - 2.5e-13) * diagonal,
                  0.5 - (r - 2.5e-13) * diagonal]
        for u in axes:
            coords += [0.5 + r * u, 0.5 - r * u]
        pool = make_pool(coords)
        assert_top_k_matches_oracle(pool, 2, 4, 4)
        assert top_k_ensembles(pool, 2, "spread", k=4,
                               beam_width=4)[0].indices == (0, 1)

    @given(seed=st.integers(0, 2**16), n=st.integers(30, 70),
           beam_width=st.integers(1, 12), size=st.integers(2, 6),
           tile_rows=st.integers(2, 9))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cut_across_small_tiles(self, seed, n, beam_width, size,
                                    tile_rows):
        """Tiles of a few rows: the rows that reach the cut sit in
        different tiles, and ``j_max`` falls inside one."""
        pool = make_pool(np.random.default_rng(seed).random((n, 4)))
        assert n >= 2 * beam_width + size
        assert_matches_oracle(pool, size, "spread",
                              block_bytes=tile_rows * n * 8,
                              beam_width=beam_width)
        assert_top_k_matches_oracle(pool, 2, beam_width, beam_width,
                                    block_bytes=tile_rows * n * 8)


    @pytest.mark.parametrize("coords", [
        np.random.default_rng(3).random((650, 4)),
        np.random.default_rng(2).integers(0, 4, (650, 4)) / 3.0],
        ids=["uniform", "tie-lattice"])
    def test_the_second_pass_rebuilds_no_cached_tile(self, coords):
        """11 tiles, 8 of them cached: the second pass fetches only the
        tiles holding a row at or above the cut, the last built first,
        so it rebuilds at most the tiles the cache could not keep."""
        pool = make_pool(coords)
        block_bytes = 60 * len(pool) * 8
        with mock.patch.object(fast_mod, "DEFAULT_BLOCK_BYTES",
                               block_bytes):
            engine = FastEngine(coords, "spread", space=SPACE,
                                samples=None, n_samples=0, seed=0)
        n_blocks = engine.dist.n_blocks
        assert n_blocks == 11
        assert engine.dist.cache.budget // block_bytes == 8
        engine._level1_spread(4, 64)
        assert engine.dist.cache.misses <= n_blocks + max(0, n_blocks - 8)
        for beam_width in (16, 64):
            assert_matches_oracle(pool, 4, "spread",
                                  block_bytes=block_bytes,
                                  beam_width=beam_width)


class TestCoverageRefineSweeps:
    """Coverage refine stops at its fixed point: once every other
    position has rejected since the last accept, no sweep can accept."""

    def engine(self, pool, samples):
        return FastEngine(SPACE.to_matrix(pool), "coverage", space=SPACE,
                          samples=samples, n_samples=0, seed=0)

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_a_swap_optimum_takes_one_sweep_per_member(self, size):
        pool = make_pool(np.random.default_rng(4).random((30, 4)))
        found = best_ensemble(pool, size, "coverage", samples=SAMPLES,
                              strategy="greedy")
        engine = self.engine(pool, SAMPLES)
        indices, score = engine.refine(found.indices)
        assert (indices, score) == (found.indices, found.score)
        assert engine.sweeps == size

    def test_design_wide_pool(self):
        """The 3,000-vector pool, greedy size 12 on 4 000 samples: the
        last accept is at pass 2, position 7, so the climb ends after
        the eleven rejections that follow it — 31 sweeps, where
        finishing the third pass took 36."""
        pool = make_pool(np.random.default_rng(7).random((3000, 4)))
        samples = SPACE.sample(4000, seed=0)
        engine = self.engine(pool, samples)
        greedy, _ = engine.greedy(12)
        engine.refine(greedy)
        assert engine.sweeps == 31


class TestGreedyMatchesOracle:
    """CELF lazy-greedy selects what the oracle's plain greedy (every
    gain fresh, exact ties to the smallest index) selects: identical
    index tuples, scores equal to 1e-9, with refine on and off, on
    generic pools, under maximal tie pressure and across tiles."""

    @pytest.mark.parametrize("refine", [True, False])
    @given(coords=pools(unit), size=st.integers(2, 5),
           block_bytes=block_budgets)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generic_pools(self, coords, size, block_bytes, refine):
        pool = make_pool(coords)
        assert_matches_oracle(pool, min(size, len(pool)), "coverage",
                              block_bytes=block_bytes, strategy="greedy",
                              refine=refine)

    @pytest.mark.parametrize("refine", [True, False])
    @given(coords=pools(grid), size=st.integers(2, 4),
           block_bytes=block_budgets)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tie_heavy_pools(self, coords, size, block_bytes, refine):
        pool = make_pool(coords)
        assert_matches_oracle(pool, min(size, len(pool)), "coverage",
                              block_bytes=block_bytes, strategy="greedy",
                              refine=refine)


class TestGreedyGuarantee:
    """Lazy-greedy coverage carries the classic (1 - 1/e) bound
    relative to the exhaustive optimum (coverage is monotone
    submodular with f(∅) = 0 over the sample cloud)."""

    @given(coords=pools(unit, min_size=5, max_size=9),
           size=st.integers(2, 4))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bound_holds(self, coords, size):
        pool = make_pool(coords)
        size = min(size, len(pool))
        greedy = best_ensemble(pool, size, "coverage", samples=SAMPLES,
                               strategy="greedy",
                               refine=False)
        exact = exhaustive_best(pool, size, "coverage", samples=SAMPLES)
        bound = (1.0 - 1.0 / np.e) * exact.score
        assert greedy.score >= bound - 1e-9

    def test_refine_never_hurts(self):
        rng = np.random.default_rng(7)
        pool = make_pool(rng.random((20, 4)))
        raw = best_ensemble(pool, 5, "coverage", samples=SAMPLES,
                            strategy="greedy",
                            refine=False)
        refined = best_ensemble(pool, 5, "coverage", samples=SAMPLES,
                                strategy="greedy",
                                refine=True)
        assert refined.score >= raw.score - 1e-12

    def test_greedy_requires_coverage_and_fast(self):
        pool = make_pool(np.random.default_rng(0).random((8, 4)))
        with pytest.raises(ValidationError):
            best_ensemble(pool, 3, "spread", strategy="greedy")


class TestBlockedKernels:
    """One tile kind, :class:`DistanceTiles`, serves both metrics: the
    pool against itself (spread) and against the samples (coverage)."""

    def test_pairwise_columns_match_cdist(self):
        """The pool×pool tiles are symmetric bit for bit: a member's
        rows, transposed, are its columns of ``cdist(X, X)``."""
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(3)
        X = rng.random((50, 4))
        # Tiny block budget forces many row tiles.
        tiles = DistanceTiles(X, X, block_bytes=50 * 8 * 3)
        assert tiles.n_blocks > 1
        idx = [0, 7, 13, 49]
        np.testing.assert_array_equal(tiles.rows(idx).T, cdist(X, X[idx]))
        np.testing.assert_array_equal(tiles.rows(idx, transposed=True),
                                      cdist(X, X[idx]))
        # filled in place, not a transposed view: the spread gathers
        # index it row-major
        assert tiles.rows(idx, transposed=True).flags.c_contiguous

    def test_sample_rows_match_cdist(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(4)
        X, S = rng.random((30, 4)), rng.random((64, 4))
        tiles = DistanceTiles(X, S, block_bytes=64 * 8 * 4)
        assert tiles.n_blocks > 1
        idx = [2, 3, 29]
        np.testing.assert_array_equal(tiles.rows(idx), cdist(X[idx], S))

    @pytest.mark.parametrize("tile_rows, sweep_rows", [
        (5, 2),    # several tiles, each ending on a short chunk
        (4, 9),    # a chunk larger than a tile
        (None, 3),  # one tile; 31 rows are no multiple of the chunk
    ])
    def test_sweep_is_bit_identical_to_whole_tile(self, tile_rows,
                                                  sweep_rows):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(6)
        X, S, v = rng.random((31, 4)), rng.random((64, 4)), rng.random(64)
        row_bytes = 64 * 8
        block_bytes = (tile_rows * row_bytes if tile_rows
                       else fast_mod.DEFAULT_BLOCK_BYTES)
        with mock.patch.object(fast_mod, "DEFAULT_BLOCK_BYTES",
                               block_bytes), \
                mock.patch.object(fast_mod, "SWEEP_BYTES",
                                  sweep_rows * row_bytes):
            tiles = DistanceTiles(X, S)
            sums = tiles.sweep(np.minimum, v)
        np.testing.assert_array_equal(
            sums, np.minimum(cdist(X, S), v).sum(axis=1))
        # one block() call per tile, as the whole-tile loop made
        assert tiles.cache.hits + tiles.cache.misses == tiles.n_blocks

    def test_tiles_are_read_only(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(8)
        X, S = rng.random((30, 4)), rng.random((64, 4))
        tiles = DistanceTiles(X, S, block_bytes=64 * 8 * 4)
        row = tiles.row(13)
        np.testing.assert_array_equal(row, cdist(X[13:14], S)[0])
        assert tiles.cache.hits + tiles.cache.misses == 1  # one block()
        with pytest.raises(ValueError):
            row[0] = 0.0
        with pytest.raises(ValueError):
            tiles.block(0)[2][0, 0] = 0.0
        pairwise = DistanceTiles(X, X, block_bytes=30 * 8 * 3)
        with pytest.raises(ValueError):
            pairwise.block(1)[2][0, 0] = 0.0
        with pytest.raises(ValueError):
            pairwise.row(29)[0] = 0.0
        np.testing.assert_array_equal(tiles.row(13), cdist(X[13:14], S)[0])

    def test_lru_byte_bound_and_counters(self):
        block = np.zeros(100)  # 800 bytes

        def build(key):
            return np.full(100, float(key))

        cache = BlockCache(2 * block.nbytes)
        cache.get(0, build)          # miss
        cache.get(1, build)          # miss
        cache.get(0, build)          # hit
        cache.get(2, build)          # miss -> evicts LRU block 1
        assert cache.cached_bytes <= 2 * block.nbytes
        cache.get(0, build)          # hit (still resident)
        cache.get(1, build)          # miss (was evicted)
        assert (cache.hits, cache.misses) == (2, 4)

    def test_keeps_at_least_one_block(self):
        cache = BlockCache(1)  # budget below any block

        def build(key):
            return np.zeros(1000)

        blk = cache.get(5, build)
        assert blk.nbytes == cache.cached_bytes  # retained despite budget
        assert cache.get(5, build) is blk        # and reusable

    def test_engine_cache_reuse_across_curve(self):
        from repro.ensemble.search import best_ensemble_curve

        rng = np.random.default_rng(9)
        pool = make_pool(rng.random((40, 4)))
        curve = best_ensemble_curve(pool, [2, 4, 6], "spread")
        assert sorted(curve) == [2, 4, 6]
        assert curve[2].score >= curve[4].score >= curve[6].score


class TestTieOrderingPrimitives:
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 5e-13]),
                    min_size=1, max_size=30),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_boundary_positions_cover_tie_stable_top(self, vals, width):
        scores = np.asarray(vals)
        kept = set(boundary_positions(scores, width).tolist())
        ranked = tie_sorted([(s, (i,)) for i, s in enumerate(vals)])
        top = {t[1][0] for t in ranked[:width]}
        # Every position the tie-stable ordering would select must
        # survive the per-chunk boundary cut.
        assert top <= kept

    @given(st.lists(st.tuples(
               st.sampled_from([0.0, 0.5, 0.5 - 6e-13, 1.0, 1.0 - 7e-13,
                                1.0 - 1.4e-12, 1.0 + 5e-13, 3.0]),
               st.integers(0, 5), st.integers(0, 9)),
               max_size=40, unique_by=lambda t: t[1:]),
           st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_grouped_top_is_tie_sorted(self, entries, width):
        """The same positions, in the same order, as :func:`tie_sorted`
        over ``(score, (parent, cand))``: runs of near ties, chains
        longer than one group, and entries with no tie around them."""
        scores = np.array([e[0] for e in entries], dtype=np.float64)
        parent = np.array([e[1] for e in entries], dtype=np.intp)
        cand = np.array([e[2] for e in entries], dtype=np.intp)
        ranked = tie_sorted([(s, (p, c), pos)
                             for pos, (s, p, c) in enumerate(entries)])
        assert grouped_top(scores, parent, cand, width).tolist() == [
            it[2] for it in ranked[:width]]

    def test_tie_sorted_orders_ties_by_tuple(self):
        items = [(1.0, (3,)), (1.0 + 2e-13, (1,)), (0.5, (0,)),
                 (1.0 - 4e-13, (2,))]
        ordered = tie_sorted(items)
        assert [it[1] for it in ordered] == [(1,), (2,), (3,), (0,)]
