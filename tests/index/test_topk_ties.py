"""Top-k selection on stores built to tie.

The scans select by threshold -> left-pack -> rank: they keep the rows
not above the k-th smallest coarse score of their query and order only
those.  On an entity index ties at the cut are the normal case (aliases
and shared mentions encode to identical PQ codes), so the two claims
below are checked on exactly such a store:

(a) the ranker only ever sees ``k`` plus the ties at the cut — the guard
    that a full-block rank cannot come back;
(b) a ``PQIndex`` over a store dense with exact duplicates, with removes,
    answers identically across block size, shard count and executor, and
    equal to ranking ``adc_distances`` by ``(distance, id)``.
"""

import numpy as np
import pytest

from repro.index import topk
from repro.index.pq import PQIndex
from repro.index.sharded import ShardedIndex


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
