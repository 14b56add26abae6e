"""Top-k selection on blocks built to tie.

``block_topk`` selects by threshold -> left-pack -> rank: it keeps the
cells not above the k-th smallest score of their query and orders only
those.  On an entity index ties at the cut are the normal case (aliases
and shared mentions encode to identical PQ codes), so the three claims
below are checked on exactly such blocks:

(a) the result equals a brute-force ``lexsort((ids, d, ids < 0))`` of the
    whole block, whatever ties, non-finite cells, tombstones, ``k``,
    dtype or layout it is handed;
(b) the ranker only ever sees ``k`` plus the ties at the cut — the guard
    that a full-block rank cannot come back;
(c) a ``PQIndex`` over a store dense with exact duplicates, with removes,
    answers identically across block size, shard count and executor, and
    equal to ranking ``adc_distances`` by ``(distance, id)``.
"""

import numpy as np
import pytest

from repro.index import topk
from repro.index.pq import PQIndex
from repro.index.sharded import ShardedIndex
from repro.index.topk import block_topk

NQ, WIDTH, K = 32, 40, 6


def brute_topk(distances, k, id_offset=0, exclude=None):
    """Full-block reference: pad the excluded columns, lexsort by
    ``(pad-last, distance, id)``, right-pad to ``k``."""
    nq, width = distances.shape
    ids = np.tile(np.arange(width, dtype=np.int64), (nq, 1))
    d = distances.astype(np.float64)
    if exclude is not None:
        ids[:, exclude] = -1
        d[:, exclude] = np.inf
    order = np.lexsort((ids, d, ids < 0), axis=1)[:, :k]
    rows = np.arange(nq)[:, None]
    out_ids = np.full((nq, k), -1, dtype=np.int64)
    out_d = np.full((nq, k), np.inf)
    out_ids[:, : order.shape[1]] = ids[rows, order]
    out_d[:, : order.shape[1]] = d[rows, order]
    out_ids[out_ids >= 0] += id_offset
    return out_ids, out_d


def _distinct(rng):
    # float32-exact values, so the float64 upcast of a layout is exact.
    return rng.permuted(
        np.tile(np.arange(WIDTH, dtype=np.float32), (NQ, 1)), axis=1
    )


def _duplicated_columns(rng):
    block = _distinct(rng)
    block[:, WIDTH // 2 :] = block[:, : WIDTH // 2]
    return block


def _one_query_tied_at_cut(rng):
    block = _distinct(rng)  # every row holds 0..WIDTH-1 once
    block[0, block[0] == K] = K - 1  # query 0 only: two cells at the cut
    return block


def _every_query_tied_differently(rng):
    block = _distinct(rng)
    for q in range(NQ):  # 1 + q % 5 extra cells equal to the k-th score
        block[q, (block[q] >= K) & (block[q] < K + q % 5)] = K - 1
    return block


def _all_equal(rng):
    return np.full((NQ, WIDTH), 3.0, dtype=np.float32)


def _non_finite_around_cut(rng):
    block = _distinct(rng)
    cells = [np.nan, np.inf, -np.inf, np.nan, np.inf]
    for q in range(NQ):
        # Overwrite the scores K-2 .. K+2 of some rows: at, before, after.
        for j, value in enumerate(cells[: 1 + q % 5]):
            block[q, block[q] == K - 2 + j] = value
    block[NQ - 1] = np.nan  # and one row with nothing finite at all
    block[NQ - 2, ::2] = np.inf
    return block


BLOCKS = {
    "distinct": _distinct,
    "duplicated_columns": _duplicated_columns,
    "one_query_tied_at_cut": _one_query_tied_at_cut,
    "every_query_tied_differently": _every_query_tied_differently,
    "all_equal": _all_equal,
    "non_finite_around_cut": _non_finite_around_cut,
}


def _sparse(rng):
    return rng.random(WIDTH) < 0.15


def _all_but(rng):
    mask = np.ones(WIDTH, dtype=bool)
    mask[rng.choice(WIDTH, K - 1, replace=False)] = False
    return mask


EXCLUDES = {
    "none": lambda rng: None,
    "empty": lambda rng: np.zeros(WIDTH, dtype=bool),
    "sparse": _sparse,
    "all_but_k_minus_1": _all_but,
    "all": lambda rng: np.ones(WIDTH, dtype=bool),
}

LAYOUTS = {
    "c": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
}


@pytest.mark.parametrize("exclude_name", sorted(EXCLUDES))
@pytest.mark.parametrize("block_name", sorted(BLOCKS))
class TestEqualsFullBlockRank:
    def test_every_k_dtype_and_layout(self, block_name, exclude_name):
        rng = np.random.default_rng(sorted(BLOCKS).index(block_name))
        block = BLOCKS[block_name](rng)
        exclude = EXCLUDES[exclude_name](rng)
        live = WIDTH - (0 if exclude is None else int(exclude.sum()))
        for k in (1, K, WIDTH - 1, WIDTH, WIDTH + 3):
            want_ids, want_d = brute_topk(block, k, 100, exclude)
            for dtype in (np.float32, np.float64):
                for layout in LAYOUTS.values():
                    scores = layout(block.astype(dtype))
                    ids, d = block_topk(scores, k, 100, exclude=exclude)
                    np.testing.assert_array_equal(ids, want_ids)
                    np.testing.assert_array_equal(d, want_d)
                    assert ids.dtype == np.int64
                    # Unpadded results keep the caller's score dtype.
                    assert d.dtype == (dtype if k <= live else np.float64)

    def test_input_is_not_modified(self, block_name, exclude_name):
        rng = np.random.default_rng(7)
        block = BLOCKS[block_name](rng)
        exclude = EXCLUDES[exclude_name](rng)
        before = block.copy()
        block_topk(block, K, exclude=exclude)
        np.testing.assert_array_equal(block, before)


class TestWorkBound:
    """The ranker's input width is ``k`` plus the boundary ties."""

    NQ, WIDTH, K = 32, 3000, 10

    @pytest.fixture
    def widths(self, monkeypatch):
        seen = []
        rank = topk._rank_topk

        def spy(ids, distances, k):
            seen.append(ids.shape[1])
            return rank(ids, distances, k)

        monkeypatch.setattr(topk, "_rank_topk", spy)
        return seen

    def _block(self):
        rng = np.random.default_rng(18)
        # scan_codes hands over the transpose of its (n, nq) accumulator.
        return rng.random((self.WIDTH, self.NQ)).T

    def test_clean_block_ranks_k_columns(self, widths):
        block_topk(self._block(), self.K)
        assert widths == [self.K]

    def test_one_three_way_tie_ranks_k_plus_two(self, widths):
        block = self._block()
        order = np.argsort(block[5])
        # Scores K-1, K, K+1 of query 5 all become the k-th smallest.
        block[5, order[self.K : self.K + 2]] = block[5, order[self.K - 1]]
        want = brute_topk(block, self.K)
        got = block_topk(block, self.K)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert widths == [self.K + 2]

    def test_tombstoned_block_ranks_k_columns(self, widths):
        block = self._block()
        exclude = np.zeros(self.WIDTH, dtype=bool)
        exclude[np.random.default_rng(1).choice(self.WIDTH, 30, False)] = True
        # Bury every query's current best, so the mask changes the answer.
        exclude[block.argmin(axis=1)] = True
        want = brute_topk(block, self.K, exclude=exclude)
        got = block_topk(block, self.K, exclude=exclude)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert widths == [self.K]

    def test_duplicate_dense_pq_scan_never_ranks_the_block(self, widths):
        """A 3 000-row PQ shard whose codes repeat (the measured case:
        the tie fallback fired on every call) ranks tens of columns."""
        rng = np.random.default_rng(2)
        data = rng.normal(size=(self.WIDTH, 16)).astype(np.float32)
        data[2400:] = data[:600]
        index = PQIndex(16, m=4, nbits=4, seed=3, kmeans_iters=3)
        index.train(data)
        index.add(data)
        index.remove(np.arange(0, 60, 2))
        queries = rng.normal(size=(self.NQ, 16)).astype(np.float32)
        index.search(queries, self.K)
        # One block scan plus nothing else; 4-bit codes repeat heavily, so
        # the bound is loose — but it is never the block.
        assert len(widths) == 1 and widths[0] < self.WIDTH // 4


def _duplicate_store():
    rng = np.random.default_rng(23)
    data = rng.normal(size=(300, 16)).astype(np.float32)
    data[240:] = data[:60]  # 20 % of the rows are exact duplicates
    queries = np.concatenate(
        [data[:8], rng.normal(size=(8, 16)).astype(np.float32)]
    )
    # Originals, copies and bystanders; odd and even ids (every shard).
    removed = np.concatenate(
        [np.arange(0, 20), np.arange(250, 263), np.arange(100, 109)]
    )
    return data, queries, removed


def _factory(block_size=None):
    return lambda dim: PQIndex(
        dim, m=4, nbits=5, seed=3, kmeans_iters=4, block_size=block_size
    )


class TestDuplicateDensePQ:
    K = 10

    @pytest.fixture(scope="class")
    def oracle(self):
        """``adc_distances`` over the live rows ranked by (distance, id)."""
        data, queries, removed = _duplicate_store()
        index = _factory()(16)
        index.train(data)
        index.add(data)
        scores = index.pq.adc_distances(queries, index.codes)
        live = np.setdiff1d(np.arange(len(data)), removed)
        live_scores = np.ascontiguousarray(scores[:, live])
        ids = np.tile(live, (len(queries), 1))
        order = np.lexsort((ids, live_scores), axis=1)[:, : self.K]
        rows = np.arange(len(queries))[:, None]
        want_ids, want_d = ids[rows, order], live_scores[rows, order]
        # The store must actually tie at the cut for this to test much.
        assert (want_d[:, 1:] == want_d[:, :-1]).any()
        return want_ids, want_d

    @pytest.mark.parametrize("block_size", [1, 7, 256, None])
    def test_unsharded_matches_oracle(self, oracle, block_size):
        data, queries, removed = _duplicate_store()
        index = _factory(block_size)(16)
        index.train(data)
        index.add(data)
        index.remove(removed)
        got = index.search(queries, self.K)
        assert got.ids.tobytes() == oracle[0].tobytes()
        assert got.distances.tobytes() == oracle[1].tobytes()

    @pytest.mark.parametrize("executor", ["inline", "process"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    @pytest.mark.parametrize("block_size", [7, None])
    def test_sharded_matches_oracle(
        self, oracle, block_size, num_shards, executor
    ):
        data, queries, removed = _duplicate_store()
        with ShardedIndex(
            16, num_shards, factory=_factory(block_size), executor=executor
        ) as index:
            index.train(data)
            index.add(data)
            index.remove(removed)
            got = index.search(queries, self.K)
            assert not got.partial
            assert got.ids.tobytes() == oracle[0].tobytes()
            assert got.distances.tobytes() == oracle[1].tobytes()
