"""Tests for repro.serving.ingest and the engine's online-mutation path.

Covers the satellite regression (a cached result must never resurrect a
removed entity), the change-feed consumer's watermark/retry/dead-letter
semantics, background ingestion interleaved with ``submit()`` traffic,
and the compaction trigger under sustained churn.
"""

import threading

import numpy as np
import pytest

from repro.lookup.cache import QueryCache
from repro.lookup.exact import ExactMatchLookup
from repro.lookup.router import LookupRouter
from repro.serving.engine import LookupEngine
from repro.serving.ingest import (
    ChangeFeedConsumer,
    IndexMutation,
    WatermarkTracker,
)


@pytest.fixture(scope="module")
def mutable_engine(trained_service):
    """A routed, cached engine shared by the read-mostly tests below.

    Tests that mutate it only touch entities they create themselves,
    so the shared pipeline entities stay stable across tests.
    """
    engine = LookupEngine.from_pipeline(
        trained_service,
        router=True,
        cache_size=64,
        max_batch_size=4,
    )
    yield engine
    engine.close()


def fresh_engine(trained_service, **kwargs):
    kwargs.setdefault("router", True)
    kwargs.setdefault("cache_size", 64)
    return LookupEngine.from_pipeline(trained_service, **kwargs)


class TestIndexMutation:
    def test_validation(self):
        with pytest.raises(ValueError, match="mention"):
            IndexMutation(0, "add", "e1")
        with pytest.raises(ValueError, match="mention"):
            IndexMutation(0, "update", "e1")
        with pytest.raises(ValueError, match="seq"):
            IndexMutation(-1, "remove", "e1")
        with pytest.raises(ValueError, match="kind"):
            IndexMutation(0, "frobnicate", "e1")
        with pytest.raises(ValueError, match="entity_id"):
            IndexMutation(0, "remove", "")
        record = IndexMutation(3, "add", "e1", mentions=["a", "b"])
        assert record.mentions == ("a", "b")  # coerced to tuple

    def test_remove_needs_no_mentions(self):
        record = IndexMutation(0, "remove", "e1")
        assert record.mentions == ()


class TestWatermarkTracker:
    def test_advances_over_contiguous_runs(self):
        tracker = WatermarkTracker()
        assert tracker.watermark == -1
        tracker.mark_applied(0)
        assert tracker.watermark == 0
        tracker.mark_applied(3)
        tracker.mark_applied(2)
        assert tracker.watermark == 0
        assert tracker.pending_gaps() == (2, 3)
        tracker.mark_applied(1)
        assert tracker.watermark == 3
        assert tracker.pending_gaps() == ()

    def test_start_seq_offsets_the_frontier(self):
        tracker = WatermarkTracker(start_seq=10)
        assert tracker.watermark == 9
        tracker.mark_applied(10)
        assert tracker.watermark == 10


class TestStaleCacheRegression:
    def test_lookup_after_remove_never_serves_tombstoned_entity(
        self, trained_service, tiny_kg
    ):
        """The satellite regression: with result caching on, a lookup
        after ``remove()`` must not return the tombstoned entity from
        the ``(query, k)`` cache — the generation bump makes the cached
        entry unreachable."""
        engine = fresh_engine(trained_service)
        victim = next(iter(tiny_kg.entities()))
        query = victim.label
        try:
            before = engine.lookup_batch([query], 5)[0]
            assert any(c.entity_id == victim.entity_id for c in before)
            # Same lookup again: now served from the result cache.
            hits_before = engine.cache.stats.hits
            again = engine.lookup_batch([query], 5)[0]
            assert engine.cache.stats.hits > hits_before
            assert [c.entity_id for c in again] == [
                c.entity_id for c in before
            ]
            engine.apply_mutation(
                IndexMutation(0, "remove", victim.entity_id)
            )
            after = engine.lookup_batch([query], 5)[0]
            assert not any(
                c.entity_id == victim.entity_id for c in after
            ), "cache served a tombstoned entity"
            # The exact-hit tier must have dropped it too.
            assert victim.entity_id not in engine.router.label_table.lookup(
                query
            )
        finally:
            engine.close()

    def test_remove_landing_before_the_cache_fill_is_not_cached_over(
        self, trained_service, tiny_kg
    ):
        """A remove that lands between a lookup's scan and its
        ``put_results`` must not get the pre-remove answer filed under
        the post-remove generation: the fill uses the generation the
        lookup pinned, so the next lookup recomputes."""
        engine = fresh_engine(trained_service)
        try:
            # A typo'd label the ANN tier answers with its entity.
            for victim in tiny_kg.entities():
                query = victim.label[:-1] + "x"
                if len(query) >= 6 and any(
                    c.entity_id == victim.entity_id
                    for c in engine.lookup_batch([query], 5)[0]
                ):
                    break
            else:
                pytest.fail("no typo'd label resolves to its entity")
            engine.cache.clear()
            put_results = engine.cache.put_results

            def remove_then_put(*args, **kwargs):
                engine.cache.put_results = put_results
                engine.apply_mutation(
                    IndexMutation(0, "remove", victim.entity_id)
                )
                put_results(*args, **kwargs)

            engine.cache.put_results = remove_then_put
            raced = engine.lookup_batch([query], 5)[0]
            assert any(c.entity_id == victim.entity_id for c in raced)
            after = engine.lookup_batch([query], 5)[0]
            assert not any(
                c.entity_id == victim.entity_id for c in after
            ), "pre-remove answer was cached under the post-remove generation"
        finally:
            engine.close()

    def test_mutations_reach_the_router_fuzzy_tier(
        self, trained_service, tiny_kg
    ):
        """Short strings never reach the ANN tier, so the q-gram tier
        must drop a removed entity and learn an added one itself."""
        engine = fresh_engine(trained_service, cache_size=0)
        victim, short = next(
            (e.entity_id, m)
            for e in tiny_kg.entities()
            for m in e.mentions
            if len(m) == 3 and m.isalpha()
        )
        try:
            assert engine.lookup(short, 3)[0].entity_id == victim
            engine.apply_mutation(IndexMutation(0, "remove", victim))
            for query in (short, short[:-1] + "#"):
                assert engine.router.wants_fuzzy(query)
                assert victim not in [
                    c.entity_id for c in engine.lookup(query, 10)
                ], f"fuzzy tier served the removed entity for {query!r}"
            engine.apply_mutation(
                IndexMutation(1, "add", "e-short", mentions=("zq7",))
            )
            assert "e-short" in [
                c.entity_id for c in engine.lookup("zq8", 3)
            ], "fuzzy tier never learned the added entity"
        finally:
            engine.close()

    def test_fuzzy_tier_that_cannot_follow_is_a_poison_record(
        self, trained_service, tiny_kg
    ):
        """A router that would go stale refuses the mutation up front."""
        # An exact-match service as the fuzzy tier has no add/drop_entity.
        router = LookupRouter.build(
            tiny_kg, fuzzy=ExactMatchLookup.build(tiny_kg)
        )
        engine = fresh_engine(trained_service, router=router)
        try:
            ntotal = engine.index.ntotal
            with pytest.raises(ValueError, match="cannot follow"):
                engine.apply_mutation(
                    IndexMutation(0, "add", "e-stale", mentions=("stale",))
                )
            assert engine.index.ntotal == ntotal
        finally:
            engine.close()

    def test_generation_bump_preserves_embeddings(self, trained_service):
        engine = fresh_engine(trained_service, router=False)
        try:
            engine.lookup_batch(["zzz unknown query"], 3)
            generation = engine.cache.generation
            engine.apply_mutation(
                IndexMutation(
                    0, "add", "e-gen", mentions=("generation probe",)
                )
            )
            assert engine.cache.generation == generation + 1
            # The embedding store survives: same query re-served without
            # a second model forward pass for it.
            assert engine.cache.get_embedding("zzz unknown query") is not None
        finally:
            engine.close()


class TestConsumerApply:
    def test_feed_applies_and_advances_watermark(
        self, mutable_engine
    ):
        consumer = ChangeFeedConsumer(mutable_engine)
        feed = [
            IndexMutation(0, "add", "feed-a", mentions=("feed alpha",)),
            IndexMutation(
                1, "add", "feed-b", mentions=("feed beta", "feed b")
            ),
            IndexMutation(
                2, "update", "feed-a", mentions=("feed alpha prime",)
            ),
            IndexMutation(3, "remove", "feed-b"),
        ]
        assert consumer.consume(feed) == 4
        assert consumer.watermark == 3
        assert consumer.dead_letters == ()
        row = mutable_engine.lookup_batch(["feed alpha prime"], 3)[0]
        assert row and row[0].entity_id == "feed-a"
        row = mutable_engine.lookup_batch(["feed beta"], 3)[0]
        assert not any(c.entity_id == "feed-b" for c in row)
        stats = mutable_engine.serving_stats()
        assert stats["mutations_applied"] >= 4

    def test_poison_record_dead_letters_without_watermark_advance(
        self, mutable_engine
    ):
        """A semantically invalid record (remove of an unknown entity)
        goes straight to the dead-letter lane — no retries, and the
        watermark stays pinned below it while later records still
        apply (the gap stays visible)."""
        sleeps = []
        consumer = ChangeFeedConsumer(
            mutable_engine, max_retries=3, sleep=sleeps.append
        )
        applied = consumer.consume(
            [
                IndexMutation(0, "remove", "never-indexed"),
                IndexMutation(1, "add", "feed-c", mentions=("feed gamma",)),
            ]
        )
        assert applied == 1
        assert sleeps == []  # ValueError is not retried
        assert consumer.watermark == -1  # pinned below the dead letter
        letters = consumer.dead_letters
        assert len(letters) == 1
        assert letters[0].mutation.seq == 0
        assert letters[0].attempts == 1
        assert "never-indexed" in letters[0].error
        stats = consumer.ingest_stats()
        assert stats["dead_letters"] == 1 and stats["applied"] == 1
        mutable_engine.apply_mutation(IndexMutation(9, "remove", "feed-c"))

    def test_transient_errors_retry_with_backoff_then_dead_letter(self):
        class FlakyEngine:
            def __init__(self, failures):
                self.failures = failures
                self.calls = 0

            def apply_mutation(self, mutation):
                self.calls += 1
                if self.calls <= self.failures:
                    raise RuntimeError("worker pool mid-respawn")

        sleeps = []
        engine = FlakyEngine(failures=2)
        consumer = ChangeFeedConsumer(
            engine,
            max_retries=3,
            backoff=0.5,
            backoff_factor=2.0,
            sleep=sleeps.append,
        )
        assert consumer.apply(IndexMutation(0, "remove", "x")) is True
        assert sleeps == [0.5, 1.0]  # exponential schedule, injectable
        assert consumer.watermark == 0

        sleeps.clear()
        hopeless = FlakyEngine(failures=99)
        consumer = ChangeFeedConsumer(
            hopeless,
            max_retries=2,
            backoff=0.25,
            backoff_factor=2.0,
            sleep=sleeps.append,
        )
        assert consumer.apply(IndexMutation(5, "remove", "y")) is False
        assert sleeps == [0.25, 0.5]  # bounded: max_retries delays
        assert hopeless.calls == 3  # first attempt + 2 retries
        assert consumer.watermark == -1
        assert consumer.dead_letters[0].attempts == 3

    def test_constructor_validation(self, mutable_engine):
        with pytest.raises(ValueError):
            ChangeFeedConsumer(mutable_engine, max_retries=-1)
        with pytest.raises(ValueError):
            ChangeFeedConsumer(mutable_engine, backoff_factor=0.5)
        with pytest.raises(ValueError):
            ChangeFeedConsumer(mutable_engine, compact_threshold=0.0)


class TestBackgroundIngestion:
    def test_mutations_interleave_with_submit_traffic(
        self, trained_service, tiny_kg
    ):
        """Feed records applied on the consumer thread while serving
        threads hammer ``submit()``: every handle resolves, and after the
        drain the engine serves exactly the post-feed entity set."""
        engine = fresh_engine(trained_service, max_batch_size=4)
        labels = [e.label for e in tiny_kg.entities()][:12]
        handles = []
        handle_lock = threading.Lock()
        try:
            with ChangeFeedConsumer(engine) as consumer:
                barrier = threading.Barrier(3)

                def serve():
                    barrier.wait()
                    mine = []
                    for i in range(30):
                        mine.append(
                            engine.submit(labels[i % len(labels)], k=3)
                        )
                    engine.flush()
                    with handle_lock:
                        handles.extend(mine)

                def publish():
                    barrier.wait()
                    for seq in range(10):
                        consumer.publish(
                            IndexMutation(
                                seq,
                                "add",
                                f"stream-{seq}",
                                mentions=(f"streamed entity {seq}",),
                            )
                        )

                threads = [
                    threading.Thread(target=serve),
                    threading.Thread(target=serve),
                    threading.Thread(target=publish),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                consumer.drain()
                assert consumer.watermark == 9
                assert consumer.dead_letters == ()
            for handle in handles:
                assert handle.done and handle.exception is None
                assert len(handle.result) > 0
            row = engine.lookup_batch(["streamed entity 7"], 3)[0]
            assert row and row[0].entity_id == "stream-7"
            assert engine.serving_stats()["mutations_applied"] == 10
        finally:
            engine.close()

    def test_compact_threshold_triggers_engine_compaction(
        self, trained_service
    ):
        engine = fresh_engine(trained_service, router=False)
        try:
            consumer = ChangeFeedConsumer(engine, compact_threshold=0.02)
            seq = 0
            for i in range(4):
                assert consumer.apply(
                    IndexMutation(
                        seq, "add", f"churn-{i}", mentions=(f"churn {i}",)
                    )
                )
                seq += 1
            ntotal_before = engine.index.ntotal
            for i in range(4):
                assert consumer.apply(
                    IndexMutation(seq, "remove", f"churn-{i}")
                )
                seq += 1
            # The threshold fired along the way: tombstones were reclaimed
            # and the store shrank back below the pre-churn size.
            assert engine.serving_stats()["compactions"] >= 1
            assert engine.index.ntotal < ntotal_before
            assert engine.index.tombstone_count / engine.index.ntotal < 0.02
        finally:
            engine.close()


class TestEngineCompaction:
    def test_compact_rekeys_rows_and_keeps_serving(
        self, trained_service, tiny_kg
    ):
        engine = fresh_engine(trained_service)
        entities = list(tiny_kg.entities())
        victims = [e.entity_id for e in entities[1:4]]
        probe = entities[5].label
        probe_id = entities[5].entity_id
        try:
            for seq, victim in enumerate(victims):
                engine.apply_mutation(IndexMutation(seq, "remove", victim))
            before = engine.lookup_batch([probe], 5)[0]
            assert any(c.entity_id == probe_id for c in before)
            assert engine.compact() is True
            after = engine.lookup_batch([probe], 5)[0]
            assert [c.entity_id for c in after] == [
                c.entity_id for c in before
            ]
            assert engine.compact() is False  # nothing left to reclaim
            stats = engine.serving_stats()
            assert stats["compactions"] == 1
        finally:
            engine.close()

    def test_lookups_racing_compaction_resolve_consistently(
        self, trained_service, tiny_kg
    ):
        """Searchers race a compaction swap: the seqlock retry pins the
        row map with the row ids, so every result resolves to real
        entities — never through a stale map."""
        engine = fresh_engine(trained_service, cache_size=0)
        entities = list(tiny_kg.entities())
        known = {e.entity_id for e in entities}
        labels = [e.label for e in entities[10:20]]
        for seq, entity in enumerate(entities[:8]):
            engine.apply_mutation(
                IndexMutation(seq, "remove", entity.entity_id)
            )
        removed = {e.entity_id for e in entities[:8]}
        barrier = threading.Barrier(3)
        errors = []
        try:

            def search():
                try:
                    barrier.wait()
                    for i in range(12):
                        rows = engine.lookup_batch(
                            [labels[i % len(labels)]], 4
                        )
                        for candidate in rows[0]:
                            assert candidate.entity_id in known
                            assert candidate.entity_id not in removed
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            def compact():
                try:
                    barrier.wait()
                    assert engine.compact() is True
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            threads = [
                threading.Thread(target=search),
                threading.Thread(target=search),
                threading.Thread(target=compact),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]
        finally:
            engine.close()
