"""Fault-injection properties for the hardened sharded serving path.

The acceptance property: over 100 seeded adversarial cases, a 4-shard
index with one shard killed returns the merged results of the three
survivors with ``partial=True`` — bit-identical to a manual fan-in of
the surviving shards — while the no-fault search over the same store is
bit-identical to the equivalent unsharded scan.
"""

import time

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.sharded import AllShardsFailedError, ShardedIndex
from repro.index.topk import merge_topk
from repro.serving.engine import LookupDeadlineExceeded
from tests.support import (
    FaultInjected,
    FaultPlan,
    VectorStoreStrategy,
    assert_topk_equal,
    assert_valid_topk,
    case_rng,
    run_cases,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)

NUM_SHARDS = 4


def build_sharded(dim, vectors, fault_hook=None, **kwargs):
    index = ShardedIndex(
        dim,
        NUM_SHARDS,
        factory=FlatIndex,
        fault_hook=fault_hook,
        **kwargs,
    )
    index.add(vectors)
    return index


def manual_fanin(vectors, queries, k, skip_shard=None):
    """Reference fan-in: search each shard's rows directly and merge.

    Uses the same striping (global id ``local * NUM_SHARDS + shard``) and
    the same per-shard sub-index shapes as ``ShardedIndex``, so the
    expected result is bit-identical by construction — no BLAS width
    caveat applies.
    """
    nq = len(queries)
    run_ids = np.full((nq, k), -1, dtype=np.int64)
    run_d = np.full((nq, k), np.inf, dtype=np.float64)
    for s in range(NUM_SHARDS):
        if s == skip_shard:
            continue
        rows = vectors[s::NUM_SHARDS]
        shard = FlatIndex(vectors.shape[1])
        shard.add(rows)
        result = shard.search(queries, k)
        remapped = np.where(
            result.ids >= 0, result.ids * NUM_SHARDS + s, np.int64(-1)
        )
        run_ids, run_d = merge_topk(
            run_ids, run_d, remapped, result.distances, k
        )
    return run_ids, run_d


class TestDegradedSearchProperty:
    def test_one_dead_shard_serves_survivors(self):
        """The 100-case acceptance property (see module docstring)."""
        started = time.monotonic()
        strategy = VectorStoreStrategy(
            conditioned=False, min_rows=NUM_SHARDS, max_rows=48
        )

        def prop(store):
            rng = case_rng(99, len(store.vectors))
            k = int(rng.integers(1, 12))
            dead = int(rng.integers(0, NUM_SHARDS))
            plan = FaultPlan.parse(f"s{dead}:c0:drop")
            faulted = build_sharded(
                store.dim, store.vectors, fault_hook=plan, shard_timeout=5.0
            )
            clean = build_sharded(store.dim, store.vectors)
            try:
                got = faulted.search(store.queries, k)
                assert got.partial is True
                assert got.failed_shards == (dead,)
                assert plan.fired >= 1
                assert_valid_topk(got, len(store.vectors), k, store.note)
                want = manual_fanin(
                    store.vectors, store.queries, k, skip_shard=dead
                )
                assert_topk_equal(got, want, context=f"dead={dead} {store.note}")

                healthy = clean.search(store.queries, k)
                assert healthy.partial is False
                assert healthy.failed_shards == ()
                assert_topk_equal(
                    healthy,
                    manual_fanin(store.vectors, store.queries, k),
                    context=f"no-fault {store.note}",
                )
            finally:
                faulted.close()
                clean.close()

        executed = run_cases(prop, strategy, name="degraded_search")
        elapsed = time.monotonic() - started
        assert executed == 100
        assert elapsed < 60.0, f"property took {elapsed:.1f}s (budget 60s)"

    def test_sharded_matches_unsharded_scan(self):
        """No-fault sharded search retrieves exactly what one flat index
        over the same store retrieves (ids after the round-robin remap)."""

        def prop(store):
            k = 5
            sharded = build_sharded(store.dim, store.vectors)
            flat = FlatIndex(store.dim)
            flat.add(store.vectors)
            try:
                got = sharded.search(store.queries, k)
                want = flat.search(store.queries, k)
                # Bit-for-bit against the manual fan-in, and as id sets
                # against one flat index over the same store.
                assert_topk_equal(
                    got, manual_fanin(store.vectors, store.queries, k)
                )
                for row in range(len(store.queries)):
                    got_set = set(got.ids[row].tolist())
                    want_set = set(want.ids[row].tolist())
                    assert got_set == want_set, (
                        f"query {row}: {sorted(got_set)} != {sorted(want_set)}"
                    )
            finally:
                sharded.close()

        run_cases(
            prop,
            VectorStoreStrategy(min_rows=8, max_rows=48),
            cases=50,
            name="sharded_vs_unsharded",
        )


class TestFaultKinds:
    def _store(self, n=32, dim=8, nq=3, seed_index=0):
        rng = case_rng(7, seed_index)
        vectors = rng.normal(size=(n, dim)).astype(np.float32)
        queries = rng.normal(size=(nq, dim)).astype(np.float32)
        return vectors, queries

    def test_transient_failure_is_retried(self):
        """A raise on the first call only: the in-thread retry succeeds,
        the result is complete, and the retry counter records it."""
        vectors, queries = self._store()
        plan = FaultPlan.parse("s2:c0:raise")
        index = build_sharded(8, vectors, fault_hook=plan, max_retries=1)
        try:
            got = index.search(queries, 5)
            assert got.partial is False
            assert_topk_equal(got, manual_fanin(vectors, queries, 5))
            health = index.health_stats()
            assert health["shards"][2]["retries"] == 1
            assert health["shards"][2]["failures"] == 0
            assert health["partial_searches"] == 0
        finally:
            index.close()

    def test_exhausted_retries_degrade(self):
        """drop keeps failing through the retry: the shard is dropped."""
        vectors, queries = self._store()
        plan = FaultPlan.parse("s1:c0:drop")
        index = build_sharded(8, vectors, fault_hook=plan, max_retries=1)
        try:
            got = index.search(queries, 5)
            assert got.partial is True and got.failed_shards == (1,)
            assert plan.calls(1) == 2  # first call + one retry
            health = index.health_stats()
            assert health["shards"][1]["failures"] == 1
            assert health["shards"][1]["retries"] == 1
        finally:
            index.close()

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_slow_shard_times_out(self, executor):
        """Both executors drop the slow shard; only the concurrent
        fan-out can give up on it *before* it finishes (a serial scan
        is judged against its budget afterwards)."""
        vectors, queries = self._store()
        plan = FaultPlan.parse("s3:*:delay:0.5")
        index = build_sharded(
            8,
            vectors,
            fault_hook=plan,
            shard_timeout=0.08,
            max_retries=0,
            executor=executor,
        )
        try:
            started = time.monotonic()
            got = index.search(queries, 5)
            elapsed = time.monotonic() - started
            assert got.partial is True and got.failed_shards == (3,)
            if executor == "process":
                assert elapsed < 0.45, f"waited {elapsed:.2f}s past deadline"
            assert index.health_stats()["shards"][3]["timeouts"] == 1
            assert_topk_equal(
                got, manual_fanin(vectors, queries, 5, skip_shard=3)
            )
        finally:
            index.close()

    def test_corrupt_result_is_caught_by_differential(self):
        """The corrupt fault mispairs shard 0's ids and distances; over
        100 seeded stores the corrupted fan-in must diverge from the
        honest reference fan-in wherever the mispairing can show."""
        k = 5
        checked = []

        def prop(store):
            plan = FaultPlan.parse("s0:*:corrupt")
            index = build_sharded(store.dim, store.vectors, fault_hook=plan)
            try:
                got = index.search(store.queries, k)
            finally:
                index.close()
            assert plan.fired >= 1
            want = manual_fanin(store.vectors, store.queries, k)
            shard0 = FlatIndex(store.dim)
            shard0.add(store.vectors[0::NUM_SHARDS])
            own = shard0.search(store.queries, k).distances
            # Reversing shard 0's distances is a no-op on a query whose
            # shard-0 distances all tie, and invisible on one whose top k
            # holds no shard-0 row: nothing could catch it there.
            from_shard0 = (want[0] >= 0) & (want[0] % NUM_SHARDS == 0)
            visible = from_shard0.any(axis=1) & np.any(own != own[:, ::-1], axis=1)
            if not visible.any():
                return
            checked.append(store.note)
            try:
                assert_topk_equal(got, want)
            except AssertionError:
                return  # the differential flags the corruption
            raise AssertionError(f"corrupted shard 0 went undetected ({store.note})")

        executed = run_cases(
            prop, VectorStoreStrategy(conditioned=True), name="corruption_detected"
        )
        assert executed == 100
        assert len(checked) > executed // 2, f"only {len(checked)} stores could show it"

    def test_all_shards_dead_raises(self):
        vectors, queries = self._store()
        plan = FaultPlan.parse("*:*:raise")
        index = build_sharded(8, vectors, fault_hook=plan)
        try:
            with pytest.raises(AllShardsFailedError):
                index.search(queries, 5)
        finally:
            index.close()

    def test_fail_fast_reraises_injected_error(self):
        vectors, queries = self._store()
        plan = FaultPlan.parse("s1:*:raise")
        index = build_sharded(8, vectors, fault_hook=plan, fail_fast=True)
        try:
            with pytest.raises(FaultInjected):
                index.search(queries, 5)
        finally:
            index.close()

    def test_kill_fault_respawns_worker_and_retry_recovers(self):
        """kill on the process executor: the worker serving the shard is
        terminated just before the request, crash detection respawns it,
        and the retried call serves the full (non-partial) result."""
        vectors, queries = self._store()
        plan = FaultPlan.parse("s2:c0:kill")
        index = build_sharded(
            8, vectors, fault_hook=plan, executor="process", max_retries=1
        )
        try:
            got = index.search(queries, 5)
            assert plan.fired >= 1
            assert got.partial is False
            assert_topk_equal(got, manual_fanin(vectors, queries, 5))
            health = index.health_stats()
            assert health["worker_respawns"] >= 1
            assert health["shards"][2]["respawns"] >= 1
            assert health["shards"][2]["retries"] == 1
            # The respawned pool keeps serving without fresh faults.
            again = index.search(queries, 5)
            assert again.partial is False
        finally:
            index.close()

    def test_kill_fault_is_inert_off_process_executor(self):
        vectors, queries = self._store()
        plan = FaultPlan.parse("s2:*:kill")
        index = build_sharded(8, vectors, fault_hook=plan)
        try:
            got = index.search(queries, 5)
            assert got.partial is False
            assert_topk_equal(got, manual_fanin(vectors, queries, 5))
        finally:
            index.close()

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_degradation_semantics_uniform_across_executors(self, executor):
        """PR 5's drop-the-dead-shard contract holds verbatim on every
        executor: same partial flag, same failed set, same merged ids."""
        vectors, queries = self._store()
        plan = FaultPlan.parse("s1:c0:drop")
        index = build_sharded(
            8, vectors, fault_hook=plan, executor=executor, max_retries=1
        )
        try:
            got = index.search(queries, 5)
            assert got.partial is True and got.failed_shards == (1,)
            assert plan.calls(1) == 2  # first call + one retry
            assert_topk_equal(
                got, manual_fanin(vectors, queries, 5, skip_shard=1)
            )
        finally:
            index.close()


class TestEngineFaults:
    @pytest.fixture()
    def engine_factory(self, trained_service):
        from repro.serving.engine import LookupEngine

        engines = []

        def build(**kwargs):
            engine = LookupEngine.from_pipeline(
                trained_service,
                num_shards=2,
                max_batch_size=64,
                max_batch_age=60.0,
                **kwargs,
            )
            engines.append(engine)
            return engine

        yield build
        for engine in engines:
            engine.close()

    def test_poisoned_query_fails_alone(self, engine_factory, tiny_kg):
        from tests.support import QueryPoison, held_flush
        from repro.text.tokenize import normalize

        labels = [e.label for e in tiny_kg.entities()][:6]
        poison = QueryPoison([normalize(labels[2])])
        engine = engine_factory(fault_hook=poison)
        with held_flush(engine):  # one batch of six, served on release
            handles = [engine.submit(label, k=3) for label in labels]
        for i, handle in enumerate(handles):
            assert handle.done
            if i == 2:
                assert isinstance(handle.exception, FaultInjected)
                with pytest.raises(FaultInjected):
                    handle.result
            else:
                assert handle.exception is None
                assert len(handle.result) > 0
        stats = engine.serving_stats()
        assert stats["failed_queries"] == 1
        assert stats["isolation_retries"] >= 1
        assert poison.fired == 2  # the batch, then the poisoned query alone

    def test_batch_of_one_is_served_once(self, engine_factory, tiny_kg):
        """A lone query is already isolated: it fails with what it raised,
        without the retry that would run a poisoned (or slow) serve twice."""
        from tests.support import QueryPoison
        from repro.text.tokenize import normalize

        label = next(iter(tiny_kg.entities())).label
        poison = QueryPoison([normalize(label)])
        engine = engine_factory(fault_hook=poison)
        handle = engine.submit(label, k=3)
        assert handle.done
        assert isinstance(handle.exception, FaultInjected)
        assert poison.fired == 1
        stats = engine.serving_stats()
        assert stats["failed_queries"] == 1
        assert stats["isolation_retries"] == 0

    def test_batch_deadline_bounds_slow_serves(self, engine_factory, tiny_kg):
        from tests.support import QueryPoison, held_flush
        from repro.text.tokenize import normalize

        labels = [e.label for e in tiny_kg.entities()][:3]
        slow = QueryPoison([normalize(labels[0])], kind="delay", delay=0.2)
        engine = engine_factory(fault_hook=slow, batch_deadline=0.05)
        with held_flush(engine):  # one batch of two, served on release
            slow_handle = engine.submit(labels[0], k=3)
            ok_handle = engine.submit(labels[1], k=3)
        assert isinstance(slow_handle.exception, LookupDeadlineExceeded)
        assert ok_handle.exception is None and len(ok_handle.result) > 0
        assert engine.serving_stats()["deadline_hits"] >= 1

    def test_partial_index_results_still_serve(
        self, engine_factory, trained_service
    ):
        """A dead shard degrades engine results instead of failing them."""
        from repro.index.flat import FlatIndex
        from repro.serving.engine import LookupEngine

        mentions, row_to_entity = trained_service.index_rows()
        vectors = trained_service.embed_queries(mentions)
        plan = FaultPlan.parse("s1:c0:drop")
        index = ShardedIndex(
            trained_service.config.embedding_dim,
            2,
            factory=FlatIndex,
            fault_hook=plan,
            shard_timeout=5.0,
        )
        index.add(vectors)
        engine = LookupEngine(trained_service, index, row_to_entity)
        try:
            rows = engine.lookup_batch([mentions[0]], 3)
            assert len(rows[0]) > 0
            assert engine.serving_stats()["partial_results"] == 1
        finally:
            engine.close()

    def test_a_partial_answer_is_not_cached(self, trained_service):
        """A shard times out and the degraded answer is served — but not
        filed: once the shard recovers, the same query is answered in
        full (by the index, not from the result cache)."""
        from repro.index.flat import FlatIndex
        from repro.lookup.cache import QueryCache
        from repro.serving.engine import LookupEngine

        mentions, row_to_entity = trained_service.index_rows()
        vectors = trained_service.embed_queries(mentions)
        plan = FaultPlan.parse("s1:c0:delay:0.2")
        index = ShardedIndex(
            trained_service.config.embedding_dim,
            2,
            factory=FlatIndex,
            fault_hook=plan,
            shard_timeout=0.05,
            max_retries=0,
        )
        index.add(vectors)
        cache = QueryCache(16, cache_results=True)
        engine = LookupEngine(trained_service, index, row_to_entity, cache=cache)
        reference = LookupEngine.from_pipeline(trained_service)
        try:
            query = "zzz unknown query xyz"
            degraded = engine.lookup(query, 5)
            assert engine.serving_stats()["partial_results"] == 1
            assert cache.get_result(query, 5) is None
            full = engine.lookup(query, 5)
            assert plan.calls(1) == 2, "served from the cache, not the index"
            assert engine.serving_stats()["partial_results"] == 1
            assert full == reference.lookup(query, 5) != degraded
            assert cache.get_result(query, 5) == full  # complete: filed
        finally:
            engine.close()
            reference.close()
