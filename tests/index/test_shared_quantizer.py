"""One quantizer per sharded PQ index: trained, held, exported and counted
once.

``ShardedIndex.train`` / ``compact`` fit one :class:`ProductQuantizer` and
hand that object to every shard; ``memory_bytes`` counts it once, the
process pool exports its codebooks to one shared-memory segment, and a
trained quantizer is never re-fit in place.  Every index built here is
closed by the test that built it; the conftest leak check enforces it.
"""

import os

import numpy as np
import pytest

from repro.index.pq import PQIndex, ProductQuantizer
from repro.index.sharded import ShardedIndex
from repro.index.shm import AttachedSegments, ShmRegistry
from tests.support.oracle import exact_topk

EXECUTORS = ["inline", "process"]
M = 4


def make_data(n=300, d=16, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d)).astype(np.float32)
    queries = rng.normal(size=(9, d)).astype(np.float32)
    return data, queries


def factory(dim):
    return PQIndex(dim, m=M, nbits=4, seed=13)


def workers():
    """CI's multiprocessing matrix sets the pool width; locally one
    worker per shard."""
    return int(os.environ.get("REPRO_TEST_NUM_WORKERS", "0")) or None


def codecs(index):
    return [snap.codec for snap in index.snapshot().snaps]


def global_codes(index):
    """``(ntotal, m)`` codes in global-id order (round-robin striping:
    global id ``g`` is local row ``g // S`` of shard ``g % S``)."""
    snaps = index.snapshot().snaps
    out = np.empty((index.ntotal, M), dtype=np.uint8)
    for s, snap in enumerate(snaps):
        out[s :: len(snaps)] = snap.data
    return out


def reference(index, queries, k, removed=()):
    """Rank the shared quantizer's ``adc_distances`` over the live rows by
    ``(distance, id)``: what every executor must return, bit for bit."""
    pq = codecs(index)[0]
    live = np.setdiff1d(np.arange(index.ntotal), np.asarray(removed, int))
    ids, distances = exact_topk(
        pq.adc_distances(queries, global_codes(index)[live]), k
    )
    return np.where(ids >= 0, live[np.maximum(ids, 0)], -1), distances


class TestOneQuantizer:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    def test_every_shard_holds_the_one_codec_after_train_and_compact(
        self, num_shards
    ):
        data, _ = make_data()
        with ShardedIndex(16, num_shards, factory=factory) as index:
            index.train(data)
            trained = codecs(index)
            assert all(codec is trained[0] for codec in trained)
            assert all(shard.pq is trained[0] for shard in index.shards)
            index.add(data)
            index.remove(np.arange(0, 300, 4))
            assert index.compact() is not None
            compacted = codecs(index)
            assert all(codec is compacted[0] for codec in compacted)
            assert compacted[0] is not trained[0]  # a fresh fit

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    def test_memory_bytes_counts_the_codebooks_once(self, num_shards):
        data, _ = make_data()
        with ShardedIndex(16, num_shards, factory=factory) as index:
            index.train(data)
            index.add(data)
            codebooks = index.shards[0].pq.codebooks
            assert index.memory_bytes() == index.ntotal * M + codebooks.nbytes
            # The unsharded index over the same rows costs the same.
            plain = factory(16)
            plain.train(data)
            plain.add(data)
            assert index.memory_bytes() == plain.memory_bytes()

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_process_pool_exports_one_codebook_set(self, num_shards):
        data, queries = make_data()
        with ShardedIndex(
            16,
            num_shards,
            factory=factory,
            executor="process",
            num_workers=workers(),
        ) as index:
            index.train(data)
            index.add(data)
            index.search(queries, 5)
            codebooks = index.shards[0].pq.codebooks
            pool = index._process_pool
            assert pool.shared_bytes() == index.ntotal * M + codebooks.nbytes
            assert len(pool._registry) == num_shards + 1

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_search_is_ranked_adc_distances_with_tombstones(
        self, executor, num_shards
    ):
        data, queries = make_data(seed=5)
        removed = np.arange(1, 300, 3)
        with ShardedIndex(
            16,
            num_shards,
            factory=factory,
            executor=executor,
            num_workers=workers(),
        ) as index:
            index.train(data)
            index.add(data)
            for gone in ((), removed):
                if len(gone):
                    index.remove(gone)
                got = index.search(queries, 10)
                want_ids, want_distances = reference(index, queries, 10, gone)
                assert got.ids.tobytes() == want_ids.tobytes()
                assert got.distances.tobytes() == want_distances.tobytes()


class TestNoRetrainInPlace:
    def test_a_trained_quantizer_refuses_a_second_fit(self):
        data, _ = make_data()
        pq = ProductQuantizer(16, m=M, nbits=4, seed=0, kmeans_iters=3)
        pq.train(data)
        before = pq.codebooks.copy()
        with pytest.raises(RuntimeError, match="already trained"):
            pq.train(data[::-1])
        assert np.array_equal(pq.codebooks, before)
        fresh = pq.fresh()
        assert not fresh.is_trained and fresh.rng is pq.rng
        assert (fresh.dim, fresh.m, fresh.nbits) == (16, M, 4)

    def test_retraining_a_shard_builds_a_fresh_quantizer(self):
        """A shard re-trained on its own leaves the quantizer its
        siblings and the pinned view hold exactly as it was."""
        data, _ = make_data()
        with ShardedIndex(16, 3, factory=factory) as index:
            index.train(data)
            view = index.snapshot()
            shared = view.snaps[0].codec
            before = shared.codebooks.copy()
            index.shards[1].train(data[::-1])
            assert index.shards[1].pq is not shared
            assert index.shards[0].pq is shared
            assert index.shards[2].pq is shared
            assert view.snaps[1].codec is shared
            assert np.array_equal(shared.codebooks, before)

    def test_retraining_the_index_hands_every_shard_one_new_quantizer(self):
        data, _ = make_data()
        with ShardedIndex(16, 3, factory=factory) as index:
            index.train(data)
            old = codecs(index)[0]
            before = old.codebooks.copy()
            index.train(data[::-1])
            new = codecs(index)
            assert new[0] is not old
            assert all(codec is new[0] for codec in new)
            assert np.array_equal(old.codebooks, before)


class TestShmShareOnce:
    def test_sharing_one_array_twice_returns_one_segment(self):
        array = np.arange(12, dtype=np.float32).reshape(3, 4)
        other = array.copy()
        with ShmRegistry() as registry:
            first = registry.share(array)
            assert registry.share(array) == first
            assert registry.share(other) != first
            assert len(registry) == 2
            assert registry.total_bytes() == 2 * array.nbytes
            with AttachedSegments() as segments:
                view = segments.attach(first)
                assert segments.attach(first) is view
                np.testing.assert_array_equal(view, array)
