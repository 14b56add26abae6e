"""Tests for repro.index.topk (merge rule) and the streaming scans built on it."""

import tracemalloc

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.pq import PQIndex
from repro.index.topk import merge_topk


class TestMergeTopk:
    def test_merges_two_sorted_runs(self):
        ids_a = np.array([[0, 2]], dtype=np.int64)
        d_a = np.array([[1.0, 3.0]])
        ids_b = np.array([[5, 7]], dtype=np.int64)
        d_b = np.array([[2.0, 4.0]])
        ids, dist = merge_topk(ids_a, d_a, ids_b, d_b, 3)
        np.testing.assert_array_equal(ids, [[0, 5, 2]])
        np.testing.assert_allclose(dist, [[1.0, 2.0, 3.0]])

    def test_padding_sorts_last(self):
        ids_a = np.array([[-1, -1]], dtype=np.int64)
        d_a = np.full((1, 2), np.inf)
        ids_b = np.array([[4, -1]], dtype=np.int64)
        d_b = np.array([[0.5, np.inf]])
        ids, _ = merge_topk(ids_a, d_a, ids_b, d_b, 2)
        np.testing.assert_array_equal(ids, [[4, -1]])

    def test_tie_prefers_lower_id(self):
        ids_a = np.array([[9]], dtype=np.int64)
        ids_b = np.array([[3]], dtype=np.int64)
        d = np.array([[1.0]])
        ids, _ = merge_topk(ids_a, d, ids_b, d, 1)
        np.testing.assert_array_equal(ids, [[3]])


class TestStreamingMemory:
    def test_flat_search_never_materializes_full_matrix(self):
        """Peak allocation stays O(nq x block), not O(nq x ntotal)."""
        n, d, nq, block = 20000, 16, 8, 512
        rng = np.random.default_rng(1)
        index = FlatIndex(d, block_size=block)
        index.add(rng.normal(size=(n, d)).astype(np.float32))
        queries = rng.normal(size=(nq, d)).astype(np.float32)
        index.search(queries, 5)  # warm up caches/pools
        tracemalloc.start()
        index.search(queries, 5)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        full_matrix = nq * n * 8  # float64 (nq, ntotal) scores
        assert peak < full_matrix / 2, (
            f"peak {peak}B suggests a full (nq, ntotal) materialization "
            f"({full_matrix}B)"
        )

    def test_pq_search_never_materializes_full_matrix(self):
        n, d, nq, block = 20000, 16, 8, 512
        rng = np.random.default_rng(2)
        data = rng.normal(size=(n, d)).astype(np.float32)
        index = PQIndex(d, m=4, nbits=4, seed=0, block_size=block)
        index.train(data[:2000])
        index.add(data)
        queries = rng.normal(size=(nq, d)).astype(np.float32)
        index.search(queries, 5)
        tracemalloc.start()
        index.search(queries, 5)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        full_matrix = nq * n * 8
        assert peak < full_matrix / 2

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_flat_block_size_equivalence(self, block):
        """Blockwise flat scans rank identically to the one-shot scan.

        Ids are bit-identical; distances are allowed ULP-level wobble
        because BLAS picks different gemm kernels per block width.
        """
        rng = np.random.default_rng(3)
        n = 123
        data = rng.normal(size=(n, 8)).astype(np.float32)
        queries = rng.normal(size=(5, 8)).astype(np.float32)
        index = FlatIndex(8)
        index.add(data)
        ref = index.search(queries, 10, block_size=n)
        got = index.search(queries, 10, block_size=block)
        assert got.ids.tobytes() == ref.ids.tobytes()
        np.testing.assert_allclose(got.distances, ref.distances, rtol=1e-12)


class TestPadRankingRegression:
    """Regressions for two selection bugs found by the repro.testing
    differential harness (PR 5)."""

    def test_padding_never_evicts_nonfinite_real_candidates(self):
        """A real neighbour whose score is NaN (inf - inf in the expansion
        kernel) must survive a merge against -1/inf padding.

        Before the pad-last lexsort key, the sharded path dropped real id
        1 here: its NaN distance sorted *after* the other shard's inf
        padding, returning [0, 2, -1, -1, -1] instead of keeping all
        three stored rows.
        """
        ids_a = np.array([[0, 1, -1, -1, -1]], dtype=np.int64)
        d_a = np.array([[1.0, np.nan, np.inf, np.inf, np.inf]])
        ids_b = np.array([[2, -1, -1, -1, -1]], dtype=np.int64)
        d_b = np.array([[2.0, np.inf, np.inf, np.inf, np.inf]])
        ids, d = merge_topk(ids_a, d_a, ids_b, d_b, 5)
        np.testing.assert_array_equal(ids, [[0, 2, 1, -1, -1]])
        assert np.isnan(d[0, 2])
        assert np.isinf(d[0, 3:]).all()

    def test_real_inf_distance_outranks_padding(self):
        ids_a = np.array([[3, -1]], dtype=np.int64)
        d_a = np.array([[np.inf, np.inf]])
        ids_b = np.array([[-1, -1]], dtype=np.int64)
        d_b = np.array([[np.inf, np.inf]])
        ids, _ = merge_topk(ids_a, d_a, ids_b, d_b, 2)
        np.testing.assert_array_equal(ids, [[3, -1]])

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning"
    )
    def test_sharded_inf_store_keeps_every_row(self):
        """End-to-end pin of the original failure: a 2-shard store with an
        inf-magnitude row and k > ntotal must return all real ids, in the
        same order as the unsharded scan."""
        from repro.index.sharded import ShardedIndex

        vectors = np.array(
            [[1.0, 0.0], [np.inf, 0.0], [2.0, 0.0]], dtype=np.float32
        )
        queries = np.zeros((1, 2), dtype=np.float32)
        flat = FlatIndex(2)
        flat.add(vectors)
        sharded = ShardedIndex(2, 2)
        sharded.add(vectors)
        try:
            want = flat.search(queries, 5)
            got = sharded.search(queries, 5)
            np.testing.assert_array_equal(want.ids, [[0, 2, 1, -1, -1]])
            np.testing.assert_array_equal(got.ids, want.ids)
        finally:
            sharded.close()

    def test_boundary_ties_break_toward_smaller_id(self):
        """A cut that keeps an arbitrary candidate among scores tied at
        the boundary would let column order pick the winner; the scan
        must rank the ties by (distance, id) so the smaller id wins."""
        index = FlatIndex(2)
        index.add(  # squared distances from the origin: 5, 1, 1, 1, 9
            np.array(
                [[2, 1], [1, 0], [0, 1], [-1, 0], [3, 0]], dtype=np.float32
            )
        )
        for k in (1, 2):
            got = index.search(np.zeros((1, 2), dtype=np.float32), k)
            np.testing.assert_array_equal(got.ids, [[1, 2][:k]])
            np.testing.assert_array_equal(got.distances, [[1.0, 1.0][:k]])

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning"
    )
    def test_boundary_tie_fallback_with_nan_cut(self):
        """All-NaN boundary: the NaN candidates tie among themselves and
        must still pick the smallest ids."""
        index = FlatIndex(2)
        index.add(
            np.array(
                [[np.nan, 0], [np.nan, 0], [np.nan, 0], [1, 0]],
                dtype=np.float32,
            )
        )
        got = index.search(np.zeros((1, 2), dtype=np.float32), 2)
        np.testing.assert_array_equal(got.ids, [[3, 0]])

    def test_partition_invariance_on_exact_ties(self):
        """The PR 5 finding: duplicate rows (PQ-style exactly equal
        scores) made the one-shot scan and the width-1 blocked scan
        return different (tied) ids.  Every blocking returns the same
        winner."""
        rng = np.random.default_rng(5)
        data = rng.choice([1.0, 2.0, 3.0], size=(40, 4)).astype(np.float32)
        data[20:] = data[:20]
        queries = rng.normal(size=(3, 4)).astype(np.float32)
        pq = PQIndex(4, m=2, nbits=2, seed=0)
        pq.train(data)
        for index in (FlatIndex(4), pq):
            index.add(data)
            want = index.search(queries, 5, block_size=40)
            assert (want.distances[:, 1:] == want.distances[:, :-1]).any()
            for block in (1, 3, 7, 39):
                got = index.search(queries, 5, block_size=block)
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_array_equal(got.distances, want.distances)
