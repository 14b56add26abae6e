"""TypePartitionedIndex: per-key sub-indices with a merge_topk union."""

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.partitioned import DEFAULT_PARTITION, TypePartitionedIndex
from repro.index.pq import PQIndex
from repro.testing import assert_topk_agrees, assert_topk_equal

DIM = 16


def make_store(n=120, dim=DIM, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    queries = rng.standard_normal((5, dim)).astype(np.float32)
    keys = [f"t{i % 3}" for i in range(n)]
    return vectors, queries, keys


class TestConstruction:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            TypePartitionedIndex(0)

    def test_rejects_mismatched_key_count(self):
        index = TypePartitionedIndex(DIM)
        with pytest.raises(ValueError, match="partition keys"):
            index.add(np.zeros((3, DIM), dtype=np.float32), ["a", "b"])

    def test_partitions_created_lazily_in_first_seen_order(self):
        vectors, _, _ = make_store(6)
        index = TypePartitionedIndex(DIM)
        index.add(vectors, ["b", "a", "b", "c", "a", "b"])
        assert index.partition_keys() == ("b", "a", "c")
        assert index.partition_sizes() == {"b": 3, "a": 2, "c": 1}
        assert index.ntotal == 6

    def test_global_ids_survive_multiple_adds(self):
        vectors, queries, keys = make_store()
        index = TypePartitionedIndex(DIM)
        index.add(vectors[:50], keys[:50])
        index.add(vectors[50:], keys[50:])
        flat = FlatIndex(DIM)
        flat.add(vectors)
        assert_topk_agrees(index.search(queries, 7), flat.search(queries, 7))

    def test_partition_global_ids(self):
        vectors, _, keys = make_store(9)
        index = TypePartitionedIndex(DIM)
        index.add(vectors, keys)
        ids = index.partition_global_ids("t1")
        assert ids.dtype == np.int64
        assert ids.tolist() == [i for i in range(9) if i % 3 == 1]
        with pytest.raises(KeyError):
            index.partition_global_ids("missing")

    def test_memory_bytes_counts_payload_and_id_columns(self):
        vectors, _, keys = make_store()
        index = TypePartitionedIndex(DIM)
        index.add(vectors, keys)
        flat = FlatIndex(DIM)
        flat.add(vectors)
        assert index.memory_bytes() >= flat.memory_bytes()


class TestSearch:
    def test_all_partition_union_matches_flat(self):
        vectors, queries, keys = make_store()
        index = TypePartitionedIndex(DIM)
        index.add(vectors, keys)
        flat = FlatIndex(DIM)
        flat.add(vectors)
        assert_topk_agrees(index.search(queries, 10), flat.search(queries, 10))

    def test_selected_partitions_match_post_filtered_full_scan(self):
        vectors, queries, keys = make_store()
        index = TypePartitionedIndex(DIM)
        index.add(vectors, keys)
        flat = FlatIndex(DIM)
        flat.add(vectors)
        got = index.search(queries, 5, partitions=["t2"])
        full = flat.search(queries, len(vectors))
        want = np.array(
            [[i for i in row if i % 3 == 2][:5] for row in full.ids]
        )
        assert np.array_equal(got.ids, want)

    def test_pq_partitions_bit_identical_to_post_filtering(self):
        """With a shared pre-trained quantizer the ADC distances do not
        depend on partitioning, so filtered results are *bit*-identical
        to post-filtering the unpartitioned index (the tentpole's
        exactness claim, pinned on the one bit-exact scan family)."""
        vectors, queries, keys = make_store(n=96)

        def trained_pq(d):
            sub = PQIndex(d, m=4, seed=11)
            sub.train(vectors)
            return sub

        index = TypePartitionedIndex(DIM, factory=trained_pq)
        index.add(vectors, keys)
        reference = trained_pq(DIM)
        reference.add(vectors)

        got = index.search(queries, 6, partitions=["t0", "t1"])
        full = reference.search(queries, len(vectors))
        keep = [
            [(i, d) for i, d in zip(irow, drow) if i % 3 != 2][:6]
            for irow, drow in zip(full.ids, full.distances)
        ]
        want_ids = np.array([[i for i, _ in row] for row in keep])
        want_d = np.array([[d for _, d in row] for row in keep])
        assert_topk_equal(got, (want_ids, want_d))

    def test_unknown_and_empty_selections_return_padding(self):
        vectors, queries, keys = make_store()
        index = TypePartitionedIndex(DIM)
        index.add(vectors, keys)
        for selection in (["missing"], []):
            result = index.search(queries, 4, partitions=selection)
            assert (result.ids == -1).all()
            assert np.isinf(result.distances).all()

    def test_duplicate_selection_keys_are_scanned_once(self):
        vectors, queries, keys = make_store()
        index = TypePartitionedIndex(DIM)
        index.add(vectors, keys)
        once = index.search(queries, 5, partitions=["t0"])
        twice = index.search(queries, 5, partitions=["t0", "t0"])
        assert_topk_equal(twice, once)

    def test_k_wider_than_selection_pads(self):
        vectors, queries, _ = make_store(n=4)
        index = TypePartitionedIndex(DIM)
        index.add(vectors, ["only"] * 4)
        result = index.search(queries, 9)
        assert result.ids.shape == (len(queries), 9)
        assert (result.ids[:, 4:] == -1).all()

    def test_rows_in(self):
        vectors, _, keys = make_store()
        index = TypePartitionedIndex(DIM)
        index.add(vectors, keys)
        assert index.rows_in() == len(vectors)
        assert index.rows_in(["t0"]) == sum(1 for k in keys if k == "t0")
        assert index.rows_in(["missing"]) == 0

    def test_empty_index_searches_to_padding(self):
        index = TypePartitionedIndex(DIM)
        queries = np.zeros((2, DIM), dtype=np.float32)
        result = index.search(queries, 3)
        assert (result.ids == -1).all()

    def test_default_partition_is_a_plain_key(self):
        vectors, queries, _ = make_store(n=6)
        index = TypePartitionedIndex(DIM)
        index.add(vectors, [DEFAULT_PARTITION] * 6)
        assert index.partition_keys() == (DEFAULT_PARTITION,)
        assert index.rows_in([DEFAULT_PARTITION]) == 6

    @pytest.mark.parametrize("key", ["t0", "brand-new"])
    def test_search_inside_an_add_sees_old_or_new(self, key):
        """A search that lands between a partition's own publish and the
        partitioned index's (re-entered here from the shard's ``add``,
        the deterministic stand-in for a racing reader) must answer from
        the old state or the new one — never index an id column that
        does not cover the partition yet."""
        vectors, queries, keys = make_store()
        seen = []

        class ReentrantFlat(FlatIndex):
            def add(self, rows):
                super().add(rows)
                if armed:
                    seen.append(index.search(queries, 7))

        armed = False
        index = TypePartitionedIndex(DIM, factory=ReentrantFlat)
        index.add(vectors, keys)
        old = index.search(queries, 7)
        armed = True
        extra = np.full((4, DIM), 0.125, dtype=np.float32)
        index.add(extra, [key] * 4)
        new = index.search(queries, 7)
        assert len(seen) == 1
        assert seen[0].ids.tobytes() in (old.ids.tobytes(), new.ids.tobytes())
