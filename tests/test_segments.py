"""Unit and property tests for the CSR segment kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import ValidationError
from repro._util.segments import (
    REDUCE_IDENTITY,
    concat_ranges,
    segment_offsets,
    segmented_reduce,
    sorted_unique_ids,
)
from repro.engine.kernels import _Side, reduce_block
from repro.engine.loop import canonical_frontier


class TestConcatRanges:
    def test_simple(self):
        out = concat_ranges(np.array([0, 5]), np.array([3, 7]))
        assert out.tolist() == [0, 1, 2, 5, 6]

    def test_empty_ranges_interleaved(self):
        out = concat_ranges(np.array([2, 4, 4, 9]), np.array([2, 6, 4, 10]))
        assert out.tolist() == [4, 5, 9]

    def test_all_empty(self):
        out = concat_ranges(np.array([1, 2]), np.array([1, 2]))
        assert out.size == 0
        assert out.dtype == np.int64

    def test_no_ranges(self):
        assert concat_ranges(np.array([], dtype=int),
                             np.array([], dtype=int)).size == 0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValidationError):
            concat_ranges(np.array([0]), np.array([1, 2]))

    def test_rejects_negative_ranges(self):
        with pytest.raises(ValidationError):
            concat_ranges(np.array([5]), np.array([3]))

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)),
                    max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, ranges):
        starts = np.array([s for s, _l in ranges], dtype=np.int64)
        ends = np.array([s + l for s, l in ranges], dtype=np.int64)
        expected = [i for s, l in ranges for i in range(s, s + l)]
        got = concat_ranges(starts, ends)
        assert got.dtype == np.int64
        assert got.tolist() == expected


class TestSegmentOffsets:
    def test_basic(self):
        assert segment_offsets(np.array([2, 0, 3])).tolist() == [0, 2, 2]

    def test_empty(self):
        assert segment_offsets(np.array([], dtype=int)).size == 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            segment_offsets(np.array([1, -1]))


class TestSegmentedReduce:
    def test_sum_1d(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        out = segmented_reduce(vals, np.array([2, 2]), "sum")
        assert out.tolist() == [3.0, 7.0]

    def test_min_with_empty_segment(self):
        vals = np.array([5.0, 1.0])
        out = segmented_reduce(vals, np.array([1, 0, 1]), "min")
        assert out[0] == 5.0
        assert out[1] == np.inf  # identity, NOT a stray element
        assert out[2] == 1.0

    def test_max_with_leading_empty(self):
        vals = np.array([2.0, 9.0])
        out = segmented_reduce(vals, np.array([0, 2]), "max")
        assert out[0] == -np.inf
        assert out[1] == 9.0

    def test_2d_sum(self):
        vals = np.arange(8, dtype=float).reshape(4, 2)
        out = segmented_reduce(vals, np.array([3, 1]), "sum")
        np.testing.assert_allclose(out, [[6.0, 9.0], [6.0, 7.0]])

    def test_2d_empty_segment(self):
        vals = np.ones((2, 3))
        out = segmented_reduce(vals, np.array([0, 2]), "sum")
        np.testing.assert_allclose(out[0], 0.0)
        np.testing.assert_allclose(out[1], 2.0)

    def test_bitwise_or(self):
        vals = np.array([0b001, 0b010, 0b100], dtype=np.uint64)
        out = segmented_reduce(vals, np.array([2, 0, 1]), "or")
        assert out[0] == 0b011
        assert out[1] == 0
        assert out[2] == 0b100

    def test_custom_identity(self):
        out = segmented_reduce(np.array([1.0]), np.array([0, 1]), "min",
                               identity=-1.0)
        assert out[0] == -1.0

    def test_all_segments_empty(self):
        out = segmented_reduce(np.empty(0), np.array([0, 0]), "sum")
        assert out.tolist() == [0.0, 0.0]

    def test_no_segments(self):
        assert segmented_reduce(np.empty(0), np.array([], dtype=int)).size == 0

    def test_rejects_bad_op(self):
        with pytest.raises(ValidationError):
            segmented_reduce(np.array([1.0]), np.array([1]), "mean")

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValidationError):
            segmented_reduce(np.array([1.0, 2.0]), np.array([3]))

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=20),
        st.sampled_from(["sum", "min", "max"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_1d(self, counts, op, rand):
        counts = np.asarray(counts)
        total = int(counts.sum())
        vals = np.asarray([rand.uniform(-10, 10) for _ in range(total)])
        got = segmented_reduce(vals, counts, op)
        fn = {"sum": np.sum, "min": np.min, "max": np.max}[op]
        pos = 0
        for i, c in enumerate(counts):
            if c == 0:
                assert got[i] == REDUCE_IDENTITY[op]
            else:
                # atol scaled to the summands: reduceat and np.sum
                # associate differently, so a nearly-cancelling
                # segment leaves a roundoff-sized difference that no
                # pure rtol on the tiny result can absorb.
                np.testing.assert_allclose(got[i], fn(vals[pos:pos + c]),
                                           rtol=1e-12, atol=1e-12 * 10 * c)
            pos += c


class TestReduceatContract:
    """The numeric contract (DESIGN §13): every float reducer is
    ``np.ufunc.reduceat``, so the kernel paths agree with each other
    bit for bit — in an order NumPy owns, which is not left to right.
    Swap any of the three for ``np.sum`` or a SciPy product and it
    sums these rows left to right instead."""

    #: Three rows (the middle one empty) whose left-to-right float sums
    #: are not what ``reduceat`` returns.
    COUNTS = np.array([3, 0, 4])
    VALUES = np.array([0.1, 0.2, 0.3, 1.0, 2.0 ** 53, 1.0, -2.0 ** 53])
    REDUCEAT = np.add.reduceat(VALUES, [0, 3])

    @staticmethod
    def left_to_right(values):
        total = values[0]
        for value in values[1:]:
            total = total + value
        return total

    def test_fixture_distinguishes_the_orders(self):
        rows = (self.VALUES[:3], self.VALUES[3:])
        for got, row in zip(self.REDUCEAT, rows):
            assert got != self.left_to_right(row)
            assert self.left_to_right(row) == np.sum(row)
        from scipy import sparse

        spmv = sparse.csr_matrix(
            (self.VALUES, np.arange(7), [0, 3, 3, 7])).dot(np.ones(7))
        assert spmv[0] != self.REDUCEAT[0] and spmv[2] != self.REDUCEAT[1]

    def test_every_reducer_is_reduceat(self):
        want = [self.REDUCEAT[0], 0.0, self.REDUCEAT[1]]
        got = segmented_reduce(self.VALUES, self.COUNTS, "sum")
        assert got.tolist() == want
        # ... and on its branch for counts without an empty row.
        got = segmented_reduce(self.VALUES, self.COUNTS[[0, 2]], "sum")
        assert got.tolist() == self.REDUCEAT.tolist()
        for row, expected in ((self.VALUES[:3], self.REDUCEAT[0]),
                              (self.VALUES[3:], self.REDUCEAT[1])):
            assert reduce_block(row, "sum").tolist() == [expected]
        ptr = np.concatenate(([0], np.cumsum(self.COUNTS)))
        side = _Side(ptr, np.zeros(7, dtype=np.int64),
                     np.arange(7, dtype=np.int64))
        assert side.reduce(self.VALUES, "sum").tolist() == want


class TestSortedUniqueIds:
    """Equals ``np.unique`` on ids in ``[0, n)``, few or many against
    ``n``."""

    @staticmethod
    def _check(ids, n):
        ids = np.asarray(ids)
        before = ids.copy()
        got = sorted_unique_ids(ids, n)
        assert got.dtype == np.int64
        assert got.tolist() == np.unique(ids).tolist()
        assert not np.shares_memory(got, ids)  # a fresh array
        np.testing.assert_array_equal(ids, before)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, data):
        n = data.draw(st.integers(0, 300))
        ids = data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                 max_size=0 if n == 0 else 120))
        dtype = data.draw(st.sampled_from([np.int64, np.int32]))
        self._check(np.asarray(ids, dtype=dtype), n)

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_ranges(self, n):
        self._check(np.empty(0, dtype=np.int64), n)
        if n:
            self._check([0], n)
            self._check([0, 0, 0], n)

    def test_empty_input_in_a_wide_range(self):
        self._check(np.empty(0, dtype=np.int64), 10_000)

    @pytest.mark.parametrize("n", [7, 4_000])
    def test_unsorted_duplicated_and_int32(self, n):
        self._check(np.array([6, 0, 6, 3, 3, 0, 5], dtype=np.int32), n)
        self._check(np.full(9, 4), n)
        self._check(np.arange(6, -1, -1), n)

    def test_a_full_range_comes_back_as_a_copy(self):
        ids = np.arange(500, dtype=np.int64)
        self._check(ids, 500)


class TestCanonicalFrontier:
    @pytest.mark.parametrize("bad", [[-1], [0, 3, -2], [5], [0, 9, 1]])
    @pytest.mark.parametrize("pad", [0, 200])
    def test_out_of_range_raises_before_anything_is_indexed(
            self, bad, pad, monkeypatch):
        """A negative id would wrap in the flag scatter instead of
        failing: the range check has to come first, for a short and
        for a long batch."""
        monkeypatch.setattr("repro.engine.loop.sorted_unique_ids",
                            lambda *args: pytest.fail("indexed first"))
        vids = np.concatenate([np.asarray(bad), np.zeros(pad, dtype=int)])
        with pytest.raises(ValidationError, match="out of range"):
            canonical_frontier(vids, 5)

    def test_canonical_is_sorted_unique_int64_and_fresh(self):
        vids = np.array([3, 1, 3, 0], dtype=np.int32)
        out = canonical_frontier(vids, 5)
        assert out.dtype == np.int64 and out.tolist() == [0, 1, 3]
        everyone = np.arange(5, dtype=np.int64)
        again = canonical_frontier(everyone, 5)
        assert again.tolist() == everyone.tolist()
        assert not np.shares_memory(again, everyone)
