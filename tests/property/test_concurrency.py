"""Concurrency properties: QueryCache and LookupEngine under 8 threads.

Injected delays (shard-level and query-level) widen the race windows; the
assertions are about *accounting*: no lost or stranded
:class:`PendingLookup`, every handle resolves exactly once, and every
stats counter adds up after the storm.
"""

import threading

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.sharded import ShardedIndex
from repro.lookup.cache import QueryCache
from repro.serving.engine import LookupEngine
from repro.testing import FaultInjected, FaultPlan, QueryPoison, case_rng
from repro.text.tokenize import normalize

THREADS = 8


def hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on N threads; re-raise the first error."""
    errors = []
    barrier = threading.Barrier(threads)

    def run(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    pool = [
        threading.Thread(target=run, args=(i,), name=f"hammer-{i}")
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


class TestQueryCacheConcurrency:
    def test_counters_add_up_under_contention(self):
        cache = QueryCache(capacity=32, cache_results=True)
        gets_per_thread = 200

        def worker(ti):
            rng = case_rng(11, ti)
            for i in range(gets_per_thread):
                key = f"q{int(rng.integers(0, 48))}"
                vector = cache.get_embedding(key)
                if vector is None:
                    cache.put_embedding(key, np.full(4, float(ti)))
                else:
                    assert not vector.flags.writeable
                if i % 3 == 0:
                    row = cache.get_result(key, 5)
                    if row is None:
                        cache.put_result(key, 5, [ti])

        hammer(worker)
        stats = cache.stats
        assert stats.requests == stats.hits + stats.misses
        expected_gets = THREADS * (
            gets_per_thread + (gets_per_thread + 2) // 3
        )
        assert stats.requests == expected_gets
        assert 0.0 <= stats.hit_rate <= 1.0
        assert len(cache) <= 2 * 32

    def test_get_embeddings_memoizes_across_threads(self):
        """The batch memoizer never returns a wrong vector, and the
        embed function only ever sees keys missing at probe time."""
        cache = QueryCache(capacity=64)
        calls = []
        lock = threading.Lock()

        def embed(keys):
            with lock:
                calls.append(list(keys))
            # float32, like the production embed path the cache serves.
            return np.array(
                [[float(k[1:])] for k in keys], dtype=np.float32
            )

        def worker(ti):
            rng = case_rng(13, ti)
            for _ in range(50):
                keys = [
                    f"q{int(rng.integers(0, 20))}"
                    for _ in range(int(rng.integers(1, 5)))
                ]
                out = cache.get_embeddings(keys, embed)
                assert out.shape == (len(keys), 1)
                for key, row in zip(keys, out):
                    assert row[0] == float(key[1:])

        hammer(worker)
        # Duplicate embeds of one key are possible (two threads can miss
        # simultaneously — by design, the lock is not held across embed),
        # but far fewer than the uncached call count.
        embedded = sum(len(c) for c in calls)
        assert embedded < THREADS * 50


class TestEngineConcurrency:
    @pytest.fixture()
    def sharded_engine(self, trained_service):
        plan = FaultPlan.parse("*:*:delay:0.001")  # jitter the fan-out
        mentions, row_to_entity = trained_service.index_rows()
        vectors = trained_service.embed_queries(mentions)
        index = ShardedIndex(
            trained_service.config.embedding_dim,
            4,
            factory=FlatIndex,
            fault_hook=plan,
            shard_timeout=10.0,
        )
        index.add(vectors)
        engine = LookupEngine(
            trained_service,
            index,
            row_to_entity,
            cache=QueryCache(64, cache_results=True),
            max_batch_size=8,
            max_batch_age=0.002,
        )
        yield engine
        engine.close()

    def test_every_handle_resolves_exactly_once(
        self, sharded_engine, tiny_kg
    ):
        labels = [e.label for e in tiny_kg.entities()][:24]
        all_handles = []
        handle_lock = threading.Lock()

        def worker(ti):
            rng = case_rng(17, ti)
            mine = []
            for _ in range(20):
                label = labels[int(rng.integers(0, len(labels)))]
                mine.append(sharded_engine.submit(label, k=3))
            with handle_lock:
                all_handles.extend(mine)

        hammer(worker)
        sharded_engine.flush()
        assert sharded_engine.pending == 0
        assert len(all_handles) == THREADS * 20
        for handle in all_handles:
            assert handle.done
            assert handle.exception is None
            assert isinstance(handle.result, list)
            assert len(handle.result) > 0
        stats = sharded_engine.cache.stats
        assert stats.requests == stats.hits + stats.misses
        assert sharded_engine.serving_stats()["failed_queries"] == 0

    def test_stats_snapshots_stay_consistent_under_fanout(
        self, sharded_engine, tiny_kg
    ):
        """Readers hammering the stats APIs during fan-out always see an
        atomic snapshot: each dict is internally consistent even while
        writers are mid-update.  Runs under the lock-order sanitizer when
        ``REPRO_SANITIZER=1``, which additionally proves the stats paths
        never nest the engine, index, and cache locks inversely."""
        labels = [e.label for e in tiny_kg.entities()][:24]

        def worker(ti):
            rng = case_rng(23, ti)
            if ti % 2 == 0:  # writers drive the fan-out
                for _ in range(15):
                    label = labels[int(rng.integers(0, len(labels)))]
                    sharded_engine.submit(label, k=3)
                sharded_engine.flush()
            else:  # readers poll every stats surface
                for _ in range(60):
                    serving = sharded_engine.serving_stats()
                    assert serving["failed_queries"] >= 0
                    assert serving["partial_results"] >= 0
                    health = sharded_engine.index.health_stats()
                    assert (
                        health["total_searches"]
                        >= health["partial_searches"]
                    )
                    assert len(health["shards"]) == 4
                    cache = sharded_engine.cache.stats_dict()
                    assert cache["hits"] >= 0 and cache["misses"] >= 0
                    assert 0.0 <= cache["hit_rate"] <= 1.0

        hammer(worker)
        sharded_engine.flush()
        assert sharded_engine.pending == 0
        final = sharded_engine.serving_stats()
        assert final["failed_queries"] == 0
        stats = sharded_engine.cache.stats
        assert stats.requests == stats.hits + stats.misses

    def test_poisoned_queries_fail_alone_under_concurrency(
        self, sharded_engine, tiny_kg
    ):
        labels = [e.label for e in tiny_kg.entities()][:12]
        poisoned = {normalize(labels[0]), normalize(labels[5])}
        sharded_engine.fault_hook = QueryPoison(poisoned, delay=0.001)
        outcomes = []
        outcome_lock = threading.Lock()

        def worker(ti):
            rng = case_rng(19, ti)
            mine = []
            for _ in range(12):
                label = labels[int(rng.integers(0, len(labels)))]
                mine.append((label, sharded_engine.submit(label, k=3)))
            with outcome_lock:
                outcomes.extend(mine)

        hammer(worker)
        sharded_engine.flush()
        failed = clean = 0
        for label, handle in outcomes:
            assert handle.done
            if normalize(label) in poisoned:
                assert isinstance(handle.exception, FaultInjected), label
                failed += 1
            else:
                assert handle.exception is None, (
                    f"{label!r} failed: {handle.exception!r}"
                )
                assert len(handle.result) > 0
                clean += 1
        assert failed > 0 and clean > 0  # both populations exercised
        assert (
            sharded_engine.serving_stats()["failed_queries"] == failed
        )


class TestNarrowInvalidationUnderTraffic:
    def test_no_stale_answer_survives_writes_racing_lookups(
        self, trained_service, tiny_kg
    ):
        """Readers keep a routed engine's cache full while a writer adds,
        updates and removes an entity whose mentions are among the
        queries (and near them).  The cache drops only what each write
        can change, so a lost invalidation — or a pre-write answer filed
        after the write's publish — leaves a stale answer behind: after
        every remove no answer may name the entity, and once everyone is
        done every cached answer must equal what the engine computes
        with its cache emptied."""
        import sys
        import time

        from repro.serving import IndexMutation

        seen = [m for e in tiny_kg.entities() for m in e.mentions]
        racing = ["race alpha", "race alphx", "race alphy", "rcb", "rc#"]
        queries = (
            seen[:10]
            + [m[:-1] + "x" for m in seen[:10] if len(m) >= 6]
            + [m[:-1] + "#" for m in seen if len(m) < 4][:6]
            + racing * 4
        )
        k = 4
        cycles = 40
        stop = threading.Event()
        deadline = time.monotonic() + 30.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        with LookupEngine.from_pipeline(
            trained_service, router=True, cache_size=256
        ) as engine:

            def write():
                for seq in range(0, 3 * cycles, 3):
                    engine.apply_mutation(
                        IndexMutation(
                            seq, "add", "race", mentions=("race alpha", "rcb")
                        )
                    )
                    engine.apply_mutation(
                        IndexMutation(
                            seq + 1, "update", "race", mentions=("race alphx",)
                        )
                    )
                    engine.apply_mutation(
                        IndexMutation(seq + 2, "remove", "race")
                    )
                    for _ in range(3):
                        for query in racing:
                            assert "race" not in [
                                c.entity_id for c in engine.lookup(query, k)
                            ], f"{query!r} names the removed entity"
                    if seq % 30 == 27:
                        engine.compact()

            def worker(ti):
                if ti == 0:
                    try:
                        write()
                    finally:
                        stop.set()
                    return
                rng = case_rng(17, ti)
                while not stop.is_set():
                    assert time.monotonic() < deadline, "writer never finished"
                    query = queries[int(rng.integers(0, len(queries)))]
                    engine.lookup(query, k)

            try:
                hammer(worker)
            finally:
                sys.setswitchinterval(interval)
            assert engine.serving_stats()["mutations_applied"] == 3 * cycles

            def scored_routes():
                # Exact hits are answered by the label table, ahead of the
                # result cache; only fuzzy / ANN answers are cached.
                stats = engine.router.router_stats()
                return stats["fuzzy_routed"] + stats["ann_routed"]

            for query in queries:
                engine.lookup(query, k)  # fill what is not cached
            routed = scored_routes()
            cached = [engine.lookup(query, k) for query in queries]
            assert scored_routes() == routed
            engine.cache.clear()
            assert cached == [engine.lookup(query, k) for query in queries]
