"""Tests for repro.index.sharded (fan-out equivalence and id remapping).

The two executors (inline / process) must be behaviourally
interchangeable: both return bit-identical results over the same store,
and the process executor's worker-pool lifecycle (lazy spawn, worker
reuse, invalidate-on-add, clean close with no shared memory left behind)
is covered explicitly.  Every index built here is closed by the test
that built it; the conftest leak check enforces it.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.index import shm
from repro.index.flat import FlatIndex
from repro.index.kmeans import KMeans
from repro.index.pq import PQIndex
from repro.index.sharded import ShardedIndex

EXECUTORS = ["inline", "process"]


def make_data(n=200, d=16, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d)).astype(np.float32)
    queries = rng.normal(size=(7, d)).astype(np.float32)
    return data, queries


class TestBasics:
    def test_validates_args(self):
        with pytest.raises(ValueError):
            ShardedIndex(0, 2)
        with pytest.raises(ValueError):
            ShardedIndex(4, 0)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="num_workers"):
                ShardedIndex(4, 2, executor="process", num_workers=workers)

    def test_round_robin_striping(self):
        data, _ = make_data(n=10, d=4)
        with ShardedIndex(4, 3) as index:
            index.add(data[:4])
            index.add(data[4:])
            assert index.ntotal == 10
            sizes = [s.ntotal for s in index.shards]
            assert sizes == [4, 3, 3]

    def test_global_id_remap(self):
        """Searching for a stored vector returns its global arrival id."""
        data, _ = make_data(n=30, d=8, seed=5)
        with ShardedIndex(8, 4) as index:
            index.add(data)
            result = index.search(data, 1)
        np.testing.assert_array_equal(result.ids[:, 0], np.arange(30))

    def test_memory_bytes_sums_shards(self):
        data, _ = make_data(n=12, d=4)
        with ShardedIndex(4, 3) as index:
            index.add(data)
            assert index.memory_bytes() == 12 * 4 * 4

    def test_empty_index(self):
        with ShardedIndex(4, 3) as index:
            result = index.search(np.zeros((2, 4), dtype=np.float32), 3)
        assert result.ids.shape == (2, 3)
        assert (result.ids == -1).all()

    def test_k_larger_than_ntotal_pads(self):
        data, _ = make_data(n=3, d=4)
        with ShardedIndex(4, 2) as index:
            index.add(data[:3, :4])
            result = index.search(np.zeros((1, 4), dtype=np.float32), 8)
        assert (result.ids[0, 3:] == -1).all()
        assert np.isinf(result.distances[0, 3:]).all()

    def test_close_idempotent(self):
        data, queries = make_data(n=8, d=4)
        index = ShardedIndex(4, 2, executor="process")
        index.add(data[:, :4])
        index.search(queries[:, :4], 2)
        index.close()
        index.close()
        try:
            # Pool is rebuilt lazily after close.
            result = index.search(queries[:, :4], 2)
            assert result.ids.shape == (7, 2)
        finally:
            index.close()


class TestFlatEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_identical_to_unsharded_flat(self, num_shards):
        data, queries = make_data()
        flat = FlatIndex(16)
        flat.add(data)
        want = flat.search(queries, 10)
        with ShardedIndex(16, num_shards) as sharded:
            sharded.add(data)
            got = sharded.search(queries, 10)
        assert got.ids.tobytes() == want.ids.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()

    @pytest.mark.parametrize("num_shards", [3, 8])
    def test_incremental_adds_match(self, num_shards):
        data, queries = make_data(seed=7)
        flat = FlatIndex(16)
        with ShardedIndex(16, num_shards) as sharded:
            for start in range(0, len(data), 17):
                chunk = data[start : start + 17]
                flat.add(chunk)
                sharded.add(chunk)
            got = sharded.search(queries, 5)
        want = flat.search(queries, 5)
        assert got.ids.tobytes() == want.ids.tobytes()


class TestExecutorEquivalence:
    """Every executor returns bit-identical results on the same store."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_flat_bit_identical(self, executor, num_shards):
        data, queries = make_data(n=150, seed=3)
        flat = FlatIndex(16)
        flat.add(data)
        want = flat.search(queries, 10)
        with ShardedIndex(16, num_shards, executor=executor) as sharded:
            sharded.add(data)
            assert sharded.resolved_executor() == executor
            got = sharded.search(queries, 10)
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.distances.tobytes() == want.distances.tobytes()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_pq_bit_identical(self, executor):
        data, queries = make_data(n=220, seed=21)

        def factory(dim):
            return PQIndex(dim, m=4, nbits=4, seed=29)

        plain = factory(16)
        plain.train(data)
        plain.add(data)
        want = plain.search(queries, 10)
        with ShardedIndex(
            16, 3, factory=factory, executor=executor
        ) as sharded:
            sharded.train(data)
            sharded.add(data)
            got = sharded.search(queries, 10)
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.distances.tobytes() == want.distances.tobytes()

    def test_default_executor_is_inline_on_every_host(self):
        """No host shape turns the default into a process pool: a search
        on a default-built index spawns nothing and maps nothing."""
        data, queries = make_data(n=20, d=8)
        with ShardedIndex(8, 2) as index:
            index.add(data)
            index.search(queries, 3)
            assert index.resolved_executor() == "inline"
            assert index._process_pool is None
        assert shm.owned_segment_names() == []

    def test_invalid_executor_rejected(self):
        for executor in ("greenlet", "auto", "thread"):
            with pytest.raises(ValueError):
                ShardedIndex(8, 2, executor=executor)

    def test_snapshotless_family_is_refused_where_it_enters(
        self, trained_service
    ):
        """The served stack holds one kind of index.  An offline baseline
        (no snapshots, no ``remove``) is a ``TypeError`` naming its class
        at each of the two doors — not a pickled shard, and not a
        mutation that fails half-applied later — and nothing was spawned
        or mapped on the way."""
        from repro.index.ivfpq import IVFPQIndex
        from repro.index.lsh import LSHIndex
        from repro.serving import LookupEngine

        def lsh(dim):
            return LSHIndex(dim, nbits=8, ntables=2, seed=0)

        with pytest.raises(TypeError, match="LSHIndex"):
            ShardedIndex(8, 2, factory=lsh, executor="process")
        dim = trained_service.config.embedding_dim
        with pytest.raises(TypeError, match="IVFPQIndex"):
            LookupEngine(trained_service, IVFPQIndex(dim), [])
        assert shm.owned_segment_names() == []
        assert multiprocessing.active_children() == []


class TestProcessPoolLifecycle:
    def _build(self, **kwargs):
        # CI's multiprocessing matrix exercises different pool widths
        # (REPRO_TEST_NUM_WORKERS); locally the default is one worker
        # per shard.
        kwargs.setdefault(
            "num_workers",
            int(os.environ.get("REPRO_TEST_NUM_WORKERS", "0")) or None,
        )
        data, queries = make_data(n=120, seed=4)
        index = ShardedIndex(16, 4, executor="process", **kwargs)
        index.add(data)
        return index, queries

    def test_pool_spawns_lazily_on_first_search(self):
        index, queries = self._build()
        try:
            assert index._process_pool is None
            index.search(queries, 5)
            assert index._process_pool is not None
            assert index._process_pool.started
        finally:
            index.close()

    def test_workers_are_reused_across_searches(self):
        index, queries = self._build()
        try:
            index.search(queries, 5)
            pids = index._process_pool.worker_pids()
            assert all(pid is not None for pid in pids)
            for _ in range(3):
                index.search(queries, 5)
            assert index._process_pool.worker_pids() == pids
            assert index._process_pool.respawns == 0
        finally:
            index.close()

    def test_fewer_workers_than_shards_round_robins(self):
        index, queries = self._build(num_workers=2)
        flat = FlatIndex(16)
        flat.add(make_data(n=120, seed=4)[0])
        want = flat.search(queries, 5)
        try:
            got = index.search(queries, 5)
            assert got.ids.tobytes() == want.ids.tobytes()
            assert len(index._process_pool.worker_pids()) == 2
        finally:
            index.close()

    def test_close_terminates_workers_and_unlinks_shm(self):
        index, queries = self._build()
        index.search(queries, 5)
        pool = index._process_pool
        pids = pool.worker_pids()
        assert pool.shared_bytes() > 0
        index.close()
        index.close()  # idempotent
        for pid in pids:
            # A dead pid raises; a reused pid belongs to someone else.
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                pass
        assert not any(
            name.startswith(f"{shm.SEGMENT_PREFIX}-{os.getpid()}-")
            for name in shm.owned_segment_names()
        )

    def test_add_invalidates_and_reexports(self):
        """Growing the store drops the stale pool; the next search maps
        fresh segments and sees the new rows."""
        data, queries = make_data(n=80, seed=6)
        index = ShardedIndex(16, 4, executor="process")
        index.add(data[:40])
        try:
            index.search(queries, 5)
            first_pids = index._process_pool.worker_pids()
            index.add(data[40:])
            assert index._process_pool is None
            flat = FlatIndex(16)
            flat.add(data)
            want = flat.search(queries, 5)
            got = index.search(queries, 5)
            assert got.ids.tobytes() == want.ids.tobytes()
            assert index._process_pool.worker_pids() != first_pids
        finally:
            index.close()

    def test_crashed_worker_respawns_and_retry_succeeds(self):
        # 1:1 workers so the respawn is attributed to shard 2 (with
        # fewer workers a co-resident shard may trigger the heal first).
        index, queries = self._build(num_workers=4)
        flat = FlatIndex(16)
        flat.add(make_data(n=120, seed=4)[0])
        want = flat.search(queries, 5)
        try:
            index.search(queries, 5)
            pool = index._process_pool
            victim = pool._worker_of[2]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            got = index.search(queries, 5)
            assert got.partial is False
            assert got.ids.tobytes() == want.ids.tobytes()
            assert pool.respawns >= 1
            health = index.health_stats()
            assert health["worker_respawns"] >= 1
            assert health["shards"][2]["respawns"] >= 1
        finally:
            index.close()

    def test_untrained_pq_shard_fails_export(self):
        def factory(dim):
            return PQIndex(dim, m=4, nbits=4, seed=1)

        with ShardedIndex(16, 2, factory=factory, executor="process") as index:
            with pytest.raises(RuntimeError, match="untrained"):
                index._worker_pool()

    def test_health_stats_reports_executor_and_seconds(self):
        index, queries = self._build()
        try:
            index.search(queries, 5)
            health = index.health_stats()
            assert health["executor"] == "process"
            assert all(s["seconds"] > 0 for s in health["shards"])
        finally:
            index.close()


class TestPQEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_identical_to_unsharded_pq(self, num_shards):
        """Identically-seeded shards learn the same codebooks, so the
        sharded ADC scan reproduces the unsharded one exactly."""
        data, queries = make_data(n=300, seed=11)

        def factory(dim):
            return PQIndex(dim, m=4, nbits=4, seed=13)

        plain = factory(16)
        plain.train(data)
        plain.add(data)
        want = plain.search(queries, 10)
        with ShardedIndex(16, num_shards, factory=factory) as sharded:
            sharded.train(data)
            sharded.add(data)
            assert sharded.is_trained
            got = sharded.search(queries, 10)
        assert got.ids.tobytes() == want.ids.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()


class TestOneFitPerFanOut:
    """``train`` and ``compact`` fit the quantizer once, whatever the shard
    count, and every shard encodes against those codebooks."""

    M = 4

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        real_fit = KMeans.fit

        def spy(self, points):
            calls.append(len(points))
            return real_fit(self, points)

        monkeypatch.setattr(KMeans, "fit", spy)
        return calls

    def _factory(self, seed=13):
        return lambda dim: PQIndex(dim, m=self.M, nbits=4, seed=seed)

    @staticmethod
    def _codebooks_equal(index):
        first, *rest = [shard.pq.codebooks for shard in index.shards]
        return all(np.array_equal(first, other) for other in rest)

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_one_fit_per_train_and_per_compact(self, fits, num_shards):
        data, _ = make_data(n=300, seed=11)
        with ShardedIndex(16, num_shards, factory=self._factory()) as index:
            index.train(data)
            assert len(fits) == self.M
            assert self._codebooks_equal(index)
            index.add(data)
            index.remove(np.arange(0, 300, 5))
            fits.clear()
            assert index.compact() is not None
            assert len(fits) == self.M
            assert fits == [240] * self.M  # the live rows, once
            assert self._codebooks_equal(index)

    def test_unseeded_factory_yields_identical_shards(self):
        data, queries = make_data(n=300, seed=12)
        with ShardedIndex(16, 3, factory=self._factory(seed=None)) as index:
            index.train(data)
            index.add(data)
            assert self._codebooks_equal(index)
            # One quantizer: the sharded scan is the unsharded scan over it.
            plain = PQIndex(16, m=self.M, nbits=4)
            plain.pq.codebooks = index.shards[0].pq.codebooks
            plain.add(data)
            want = plain.search(queries, 10)
            got = index.search(queries, 10)
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.distances.tobytes() == want.distances.tobytes()
            index.remove(np.arange(0, 300, 7))
            assert index.compact() is not None
            assert self._codebooks_equal(index)


class TestScanSeconds:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_scan_clock_is_inside_the_coordinator_wall(self, executor):
        """``scan_seconds`` is the shard's own scan (the worker's clock on
        the process executor), ``seconds`` the coordinator's wall around
        it: the first is positive and never exceeds the second."""
        data, queries = make_data(n=400, seed=6)
        with ShardedIndex(16, 2, executor=executor) as index:
            index.add(data)
            for _ in range(3):
                index.search(queries, 5)
            shards = index.health_stats()["shards"]
        assert len(shards) == 2
        for shard in shards:
            assert 0 < shard["scan_seconds"] <= shard["seconds"]

    def test_failed_attempts_cost_wall_but_no_scan(self):
        """A shard whose every attempt raises before scanning reports
        the wall it burnt and no scan time."""

        class Boom:
            def before(self, shard):
                if shard == 1:
                    raise RuntimeError("injected")

        data, queries = make_data(n=40, seed=6)
        with ShardedIndex(16, 2, fault_hook=Boom()) as index:
            index.add(data)
            assert index.search(queries, 5).failed_shards == (1,)
            shards = index.health_stats()["shards"]
        assert shards[0]["scan_seconds"] > 0
        assert shards[1]["scan_seconds"] == 0 and shards[1]["seconds"] > 0
