"""Online mutation semantics: add/remove/update/compact per index family.

The invariants under test are local (single-threaded) — tombstoned rows
never surface, ids stay stable until a compaction renumbers them, every
error path rejects *before* any visibility change — plus the cross-family
equivalences: a sharded index mutated in place serves the same results as
a fresh inline twin of its live set, and a process-executor index that
receives ``add()`` after its workers spawned serves the new rows (the
re-export path).  The concurrent old-or-new property lives in
``tests/property/test_mutation.py``.
"""

import os
import subprocess
import sys
from contextlib import closing, nullcontext

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.mutation import (
    IndexSnapshot,
    bury,
    check_row_ids,
    extend_tombstones,
    validate_removable,
)
from repro.index.pq import PQIndex
from repro.index.sharded import ShardedIndex
from repro.index.shm import owned_segment_names
from repro.testing import assert_topk_equal, brute_force_topk, case_rng

DIM = 16


def make_store(seed, n=120, dim=DIM):
    rng = case_rng(29, seed)
    return (
        rng.standard_normal((n, dim)).astype(np.float32),
        rng.standard_normal((7, dim)).astype(np.float32),
    )


def closing_index(index):
    """``with`` for any index: sharded ones own a pool, the others nothing."""
    return closing(index) if hasattr(index, "close") else nullcontext(index)


def live_oracle(vectors, removed, queries, k):
    """Brute-force top-k over the live rows, ids mapped back to originals."""
    keep = np.setdiff1d(np.arange(len(vectors)), np.asarray(sorted(removed)))
    ids, distances = brute_force_topk(vectors[keep], queries, k)
    mapped = np.where(ids >= 0, keep[np.clip(ids, 0, None)], ids)
    return mapped, distances


class TestMutationHelpers:
    def test_check_row_ids_validates(self):
        assert check_row_ids([], 5).dtype == np.int64
        assert list(check_row_ids([3, 0], 5)) == [3, 0]
        # Narrow caller ids are widened before any id arithmetic.
        narrow = check_row_ids(np.array([3, 0], dtype=np.int32), 5)
        assert narrow.dtype == np.int64
        with pytest.raises(ValueError, match="must be in"):
            check_row_ids([5], 5)
        with pytest.raises(ValueError, match="must be in"):
            check_row_ids([-1], 5)
        with pytest.raises(ValueError, match="duplicate"):
            check_row_ids([1, 1], 5)
        with pytest.raises(ValueError, match="integer"):
            check_row_ids([0.5], 5)

    def test_duplicate_check_keeps_numpy_ma_out_of_the_remove_path(self):
        """``np.unique`` would import ``numpy.ma`` on the first remove of a
        process — tens of ms on the mutation thread, under the engine's
        mutation lock."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.index.flat import FlatIndex\n"
            "index = FlatIndex(4)\n"
            "index.add(np.eye(4, dtype=np.float32))\n"
            "try:\n"
            "    index.remove([2, 0, 2])\n"
            "except ValueError as exc:\n"
            "    assert 'duplicate row ids in one mutation batch' in str(exc)\n"
            "else:\n"
            "    raise SystemExit('a duplicate batch was accepted')\n"
            "index.remove([3, 1])\n"
            "assert index.nlive == 2\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_bury_is_copy_on_write(self):
        first = bury(None, 6, np.array([1], dtype=np.int64))
        second = bury(first, 6, np.array([4], dtype=np.int64))
        assert first is not second
        assert list(np.nonzero(first)[0]) == [1]
        assert list(np.nonzero(second)[0]) == [1, 4]
        with pytest.raises(ValueError, match="already removed"):
            validate_removable(second, np.array([4], dtype=np.int64))

    def test_extend_tombstones_none_stays_none(self):
        assert extend_tombstones(None, 3) is None
        grown = extend_tombstones(np.array([True, False]), 2)
        assert list(grown) == [True, False, False, False]


class TestFlatMutation:
    def test_remove_hides_rows_and_matches_live_oracle(self):
        vectors, queries = make_store(0)
        index = FlatIndex(DIM)
        index.add(vectors)
        removed = [0, 7, 63, 119]
        index.remove(np.asarray(removed))
        assert index.ntotal == len(vectors)  # ids stay stable
        assert index.nlive == len(vectors) - len(removed)
        assert index.tombstone_count == len(removed)
        got = index.search(queries, 10)
        assert not np.isin(got.ids, removed).any()
        want_ids, _ = live_oracle(vectors, removed, queries, 10)
        assert np.array_equal(np.sort(got.ids), np.sort(want_ids))

    def test_remove_error_paths_are_all_or_nothing(self):
        vectors, _ = make_store(1)
        index = FlatIndex(DIM)
        index.add(vectors)
        index.remove([5])
        for bad in ([5], [len(vectors)], [-1], [3, 3]):
            with pytest.raises(ValueError):
                index.remove(bad)
        # The failed batches must not have buried their valid members.
        assert index.tombstone_count == 1

    def test_k_larger_than_live_set_pads(self):
        vectors, queries = make_store(2, n=6)
        index = FlatIndex(DIM)
        index.add(vectors)
        index.remove([0, 1, 2, 3])
        got = index.search(queries, 5)
        assert ((got.ids >= 0).sum(axis=1) == 2).all()
        assert (got.ids[:, 2:] == -1).all()
        assert np.isinf(got.distances[:, 2:]).all()

    def test_update_is_one_publish_and_returns_new_ids(self):
        vectors, queries = make_store(3)
        index = FlatIndex(DIM)
        index.add(vectors)
        epoch = index.mutation_epoch
        replacement = np.full((2, DIM), 0.25, dtype=np.float32)
        new_ids = index.update([4, 9], replacement)
        assert list(new_ids) == [len(vectors), len(vectors) + 1]
        assert index.mutation_epoch == epoch + 1  # tombstone+append, one publish
        got = index.search(queries, index.nlive)
        assert not np.isin(got.ids, [4, 9]).any()
        assert np.isin(new_ids, got.ids).all()

    def test_pinned_snapshot_ignores_later_mutations(self):
        vectors, queries = make_store(4)
        index = FlatIndex(DIM)
        index.add(vectors)
        pinned = index.snapshot()
        before = index.search(queries, 10, snapshot=pinned)
        index.remove(np.arange(0, 60, dtype=np.int64))
        index.add(np.full((8, DIM), 3.0, dtype=np.float32))
        replay = index.search(queries, 10, snapshot=pinned)
        assert_topk_equal(replay, before, context="pinned snapshot drifted")

    @pytest.mark.parametrize("family", ["flat", "pq"])
    def test_pinned_snapshot_survives_compaction(self, family):
        """A snapshot holds its rows (and codec), not just a row count:
        replaying it after ``compact()`` swapped the store — and, for
        PQ, re-trained the codebooks — is bit-identical."""
        vectors, queries = make_store(14)
        if family == "flat":
            index = FlatIndex(DIM)
        else:
            index = PQIndex(DIM, m=4, nbits=4, seed=0)
            index.train(vectors)
        index.add(vectors)
        index.remove(np.arange(0, 50, dtype=np.int64))
        pinned = index.snapshot()
        before = index.search(queries, 10, snapshot=pinned)
        assert index.compact() is not None
        assert index.ntotal == len(vectors) - 50
        replay = index.search(queries, 10, snapshot=pinned)
        assert_topk_equal(replay, before, context="pinned across compact")

    def test_compact_remaps_and_resets(self):
        vectors, queries = make_store(5)
        index = FlatIndex(DIM)
        index.add(vectors)
        assert index.compact() is None  # nothing to reclaim: no swap
        removed = [1, 2, 50]
        index.remove(removed)
        before = index.search(queries, 10)
        remap = index.compact()
        assert remap is not None and remap.shape == (len(vectors),)
        assert (remap[removed] == -1).all()
        live = np.setdiff1d(np.arange(len(vectors)), removed)
        assert list(remap[live]) == list(range(len(live)))
        assert index.ntotal == index.nlive == len(live)
        assert index.tombstone_count == 0
        after = index.search(queries, 10)
        assert np.array_equal(remap[before.ids], after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)


class TestPQMutation:
    @staticmethod
    def make_index(vectors):
        index = PQIndex(DIM, m=4, nbits=4, seed=0)
        index.train(vectors)
        index.add(vectors)
        return index

    def test_remove_hides_rows(self):
        vectors, queries = make_store(6)
        index = self.make_index(vectors)
        index.remove([0, 99])
        got = index.search(queries, index.nlive)
        assert not np.isin(got.ids, [0, 99]).any()
        assert (got.ids >= 0).sum() == 7 * (len(vectors) - 2)

    def test_update_reencodes(self):
        vectors, _ = make_store(7)
        index = self.make_index(vectors)
        target = vectors[3] + 0.01
        new_ids = index.update([3], target[None, :])
        got = index.search(target[None, :], 1)
        assert got.ids[0, 0] == new_ids[0]

    def test_compact_retrains_and_serves_live_set(self):
        vectors, queries = make_store(8)
        index = self.make_index(vectors)
        removed = list(range(0, 40))
        index.remove(removed)
        before = index.search(queries, 10)
        remap = index.compact()
        assert remap is not None and (remap[removed] == -1).all()
        assert index.ntotal == len(vectors) - len(removed)
        assert index.tombstone_count == 0
        # The codebooks are retrained on the decoded live set (the raw
        # vectors are gone), so exact distances may shift — but the served
        # neighbourhood must stay essentially the same, remapped.
        after = index.search(queries, 10)
        assert (after.ids >= 0).all() and (after.ids < index.ntotal).all()
        want = remap[before.ids]
        overlap = np.mean(
            [
                len(set(a) & set(w)) / len(w)
                for a, w in zip(after.ids.tolist(), want.tolist())
            ]
        )
        assert overlap >= 0.6, f"post-compaction neighbourhood drifted: {overlap}"


class TestPairDistances:
    """``pair_distances`` is the family's exact kernel on named rows: bit
    for bit what a search reports for them (the cache's invalidation rule
    compares it with stored k-th scores, exactly)."""

    @staticmethod
    def builders():
        def pq(d):
            return PQIndex(d, m=4, nbits=4, seed=0)

        return {
            "flat": lambda: FlatIndex(DIM),
            "pq": lambda: pq(DIM),
            "sharded_flat": lambda: ShardedIndex(DIM, 3, factory=FlatIndex),
            "sharded_pq": lambda: ShardedIndex(DIM, 2, factory=pq),
        }

    @pytest.mark.parametrize(
        "family", ["flat", "pq", "sharded_flat", "sharded_pq"]
    )
    def test_equals_what_a_search_reports(self, family):
        vectors, queries = make_store(41)
        with closing_index(self.builders()[family]()) as index:
            index.train(vectors)
            index.add(vectors[:100])
            pinned = index.snapshot()
            index.add(vectors[100:])
            index.remove([3, 117])
            found = index.search(queries, 30)
            for qi in range(len(queries)):
                pairs = index.pair_distances(queries, found.ids[qi])
                np.testing.assert_array_equal(pairs[qi], found.distances[qi])
            # A pinned snapshot scores its own rows; tombstones are scored.
            old = index.pair_distances(queries[:2], [3, 99], snapshot=pinned)
            new = index.pair_distances(queries[:2], [3, 99])
            np.testing.assert_array_equal(old, new)
            assert index.pair_distances(queries, []).shape == (7, 0)
            for bad in ([-1], [len(vectors)]):
                with pytest.raises(ValueError):
                    index.pair_distances(queries, bad)
            with pytest.raises(ValueError):
                index.pair_distances(queries, [100], snapshot=pinned)

    def test_only_a_codec_retrains_on_compact(self):
        built = {name: build() for name, build in self.builders().items()}
        try:
            assert {
                name: index.retrains_on_compact
                for name, index in built.items()
            } == {
                "flat": False,
                "pq": True,
                "sharded_flat": False,
                "sharded_pq": True,
            }
        finally:
            for index in built.values():
                close = getattr(index, "close", None)
                if close:
                    close()


class TestShardedMutation:
    @staticmethod
    def make_pair(vectors, num_shards=3, **kwargs):
        index = ShardedIndex(
            DIM, num_shards, factory=lambda d: FlatIndex(d), **kwargs
        )
        index.train(vectors)
        index.add(vectors)
        return index

    def test_remove_matches_inline_twin_of_live_set(self):
        vectors, queries = make_store(9)
        index = self.make_pair(vectors, executor="inline")
        removed = [0, 5, 17, 44, 90, 118]
        index.remove(np.asarray(removed))
        got = index.search(queries, 12)
        assert not np.isin(got.ids, removed).any()
        want_ids, want_d = live_oracle(vectors, removed, queries, 12)
        assert np.array_equal(np.sort(got.ids), np.sort(want_ids))
        index.close()

    def test_remove_all_or_nothing_across_shards(self):
        vectors, _ = make_store(10)
        index = self.make_pair(vectors, executor="inline")
        index.remove([4])
        with pytest.raises(ValueError):
            index.remove([7, 4])  # 4 is already gone, 7 is on another shard
        assert index.tombstone_count == 1  # 7 must not have been buried
        index.remove([7])
        assert index.tombstone_count == 2
        index.close()

    def test_update_returns_global_ids(self):
        vectors, queries = make_store(11)
        index = self.make_pair(vectors, executor="inline")
        replacement = np.full((3, DIM), -0.5, dtype=np.float32)
        new_ids = index.update([2, 3], replacement)
        assert len(new_ids) == 3 and (new_ids >= len(vectors)).all()
        got = index.search(replacement[:1], 3)
        assert np.isin(got.ids[0], new_ids).all()
        index.close()

    def test_compact_remap_is_consistent(self):
        vectors, queries = make_store(12)
        index = self.make_pair(vectors, executor="inline")
        removed = list(range(0, 30)) + [111]
        index.remove(np.asarray(removed))
        before = index.search(queries, 10)
        remap = index.compact()
        assert remap is not None and (remap[removed] == -1).all()
        assert index.ntotal == index.nlive == len(vectors) - len(removed)
        after = index.search(queries, 10)
        assert np.array_equal(remap[before.ids], after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)
        index.close()

    def test_process_executor_serves_adds_after_spawn(self):
        """Satellite: a process-pool index receiving ``add()`` after its
        workers spawned must invalidate + re-export and serve the new
        rows, bit-identical to an inline twin of the same store."""
        vectors, queries = make_store(13, n=90)
        extra = np.full((5, DIM), 2.5, dtype=np.float32)
        proc = self.make_pair(
            vectors, num_shards=2, executor="process", num_workers=2
        )
        inline = self.make_pair(vectors, num_shards=2, executor="inline")
        try:
            # Spawn the workers (first search exports the pre-add store).
            assert_topk_equal(
                proc.search(queries, 8),
                inline.search(queries, 8),
                context="pre-add",
            )
            proc.add(extra)
            inline.add(extra)
            got = proc.search(extra, 3)
            new_ids = np.arange(len(vectors), len(vectors) + 5)
            assert np.isin(got.ids[:, 0], new_ids).all()
            assert_topk_equal(
                got, inline.search(extra, 3), context="post-add"
            )
            # Mutations after spawn, served through re-exported workers.
            proc.remove(new_ids[:2])
            inline.remove(new_ids[:2])
            assert_topk_equal(
                proc.search(queries, 8),
                inline.search(queries, 8),
                context="post-remove",
            )
        finally:
            proc.close()
            inline.close()
        assert owned_segment_names() == []
