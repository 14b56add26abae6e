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
        the ``(query, k)`` cache.  The query is a typo of the victim's
        label, so its answer is a scored one the cache stores (an exact
        hit is answered by the label table and never cached)."""
        engine = fresh_engine(trained_service)
        try:
            query, victim = ann_query_naming(engine, tiny_kg, 5)
            engine.cache.clear()
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
                victim.label
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


def fail_next_index_add(engine):
    """Make the engine's next ``index.add`` raise (once), like a dead
    shard worker would."""
    index = engine.index

    def failing_add(*args, **kwargs):
        del index.add  # the instance attribute: the method is back
        raise RuntimeError("injected index.add failure")

    index.add = failing_add


def ann_query_naming(engine, kg, k):
    """A typo'd label the ANN tier answers with its entity, and the entity."""
    for entity in kg.entities():
        query = entity.label[:-1] + "x"
        if (
            len(query) >= 6
            and not engine.router.label_table.lookup(query)
            and any(
                c.entity_id == entity.entity_id
                for c in engine.lookup_batch([query], k)[0]
            )
        ):
            return query, entity
    pytest.fail("no typo'd label resolves to its entity")


def scored_routes(engine):
    """Lookups the router has sent to a scored tier (fuzzy or ANN): the
    ones whose answers the result cache files."""
    stats = engine.router.router_stats()
    return stats["fuzzy_routed"] + stats["ann_routed"]


class TestPartWayFailures:
    """A mutation that raises part-way leaves every structure agreeing."""

    def test_failed_index_add_leaves_the_row_map_as_long_as_the_index(
        self, trained_service
    ):
        """The row map grows before ``index.add`` (readers need it first);
        when the add raises it must shrink back, or the next entity's
        rows resolve to the one that was never added."""
        engine = fresh_engine(trained_service, router=False, cache_size=0)
        try:
            fail_next_index_add(engine)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply_mutation(
                    IndexMutation(0, "add", "lost", mentions=("lost label",))
                )
            engine.apply_mutation(
                IndexMutation(1, "add", "kept", mentions=("kept label",))
            )
            best = engine.lookup("kept label", 3)[0]
            assert best.entity_id == "kept"
            assert "lost" not in [
                c.entity_id for c in engine.lookup("lost label", 10)
            ]
            assert engine.serving_stats()["mutations_applied"] == 1
        finally:
            engine.close()

    def test_update_failing_in_its_re_add_still_publishes_the_removal(
        self, trained_service, tiny_kg
    ):
        """The removal half ran (router, tombstones), so the served
        snapshot and the cache must follow — with the whole-store
        fallback, since the write is incomplete — before the error
        reaches the feed's retry / dead-letter lane."""
        engine = fresh_engine(trained_service)
        try:
            query, victim = ann_query_naming(engine, tiny_kg, 5)
            engine.lookup_batch([victim.label, query], 5)  # both cached now
            generation = engine.cache.generation
            fail_next_index_add(engine)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply_mutation(
                    IndexMutation(
                        0, "update", victim.entity_id, mentions=("renamed",)
                    )
                )
            assert engine.cache.generation == generation + 1
            stats = engine.serving_stats()
            assert stats["cache_fallback_clears"] == 1
            assert stats["mutations_applied"] == 0
            for asked in (victim.label, query):
                assert victim.entity_id not in [
                    c.entity_id for c in engine.lookup(asked, 5)
                ], f"{asked!r} still answered with the half-updated entity"
            # The engine is consistent enough to take the next record.
            engine.apply_mutation(
                IndexMutation(
                    1, "add", victim.entity_id, mentions=(victim.label,)
                )
            )
            assert engine.lookup(victim.label, 1)[0].entity_id == victim.entity_id
        finally:
            engine.close()

    def test_a_rejected_record_publishes_nothing(self, trained_service):
        engine = fresh_engine(trained_service)
        try:
            engine.lookup("germany", 3)
            generation = engine.cache.generation
            with pytest.raises(ValueError, match="not indexed"):
                engine.apply_mutation(IndexMutation(0, "remove", "nope"))
            assert engine.cache.generation == generation
            assert engine.serving_stats()["cache_fallback_clears"] == 0
        finally:
            engine.close()


class TestNarrowInvalidation:
    """The engine's side of the rule: what it tells the cache per write
    (``QueryCache.publish`` has the clause-by-clause tests)."""

    def served_from_cache(self, engine, queries, k):
        """Look ``queries`` up; assert none reached a scored tier — each
        was a result-cache hit, or an exact one, which the label table
        answers ahead of the cache."""
        routed = scored_routes(engine)
        rows = engine.lookup_batch(queries, k)
        assert scored_routes(engine) == routed
        return rows

    def test_a_write_far_from_every_cached_answer_strands_none(
        self, trained_service, tiny_kg
    ):
        """A new mention that shares no gram with a cached fuzzy query and
        whose vector is beyond a cached ANN answer's k-th distance can
        enter neither: both stay cached, and stay right."""
        engine = fresh_engine(trained_service)
        try:
            k = 2
            ann_query, _ = ann_query_naming(engine, tiny_kg, k)
            fuzzy_query = next(
                m[:-1] + "#"
                for e in tiny_kg.entities()
                for m in e.mentions
                if len(m) == 3 and m.isalpha()
            )
            engine.cache.clear()
            queries = [ann_query, fuzzy_query, "germany"]
            before = engine.lookup_batch(queries, k)
            assert [len(row) for row in before[:2]] == [k, k]
            # Far from the ANN answer: beyond its k-th distance.
            fuzzy = engine.router.fuzzy
            vector = trained_service.embed_queries([ann_query])
            for mention in ("qqqq jjjj zzzz", "wwwwwwww", "0000 1111 2222"):
                distance = float(
                    (
                        (trained_service.embed_queries([mention]) - vector) ** 2
                    ).sum()
                )
                if distance > -before[0][-1].score * 1.01 and fuzzy.grams(
                    mention
                ).isdisjoint(fuzzy.grams(fuzzy_query)):
                    break
            else:
                pytest.fail("no far-away mention among the candidates")
            engine.apply_mutation(
                IndexMutation(0, "add", "far-away", mentions=(mention,))
            )
            stats = engine.serving_stats()
            assert stats["results_stranded"] == 0
            assert stats["cache_fallback_clears"] == 0
            assert self.served_from_cache(engine, queries, k) == before
            engine.cache.clear()
            assert engine.lookup_batch(queries, k) == before
        finally:
            engine.close()

    def test_an_added_mention_strands_the_answers_it_enters(
        self, trained_service, tiny_kg
    ):
        """Two cached scored answers; the new entity's mentions are the
        first one's query and an exact label.  The first is stranded (its
        query is now an exact key, which the label table answers), the
        one sharing no gram with either mention stays cached."""
        engine = fresh_engine(trained_service)
        try:
            k = 2
            ann_query, _ = ann_query_naming(engine, tiny_kg, k)
            mentions = (ann_query, "Germany")
            fuzzy = engine.router.fuzzy
            grams = fuzzy.grams(ann_query) | fuzzy.grams("germany")
            untouched = next(
                query
                for query in (e.label[:-1] + "z" for e in tiny_kg.entities())
                if not engine.router.label_table.lookup(query)
                and engine.router.wants_fuzzy(query)
                and fuzzy.grams(query).isdisjoint(grams)
            )
            engine.cache.clear()
            engine.lookup_batch([ann_query, "germany", untouched], k)
            engine.apply_mutation(
                IndexMutation(0, "add", "intruder", mentions=mentions)
            )
            assert engine.serving_stats()["results_stranded"] == 1
            assert engine.lookup(ann_query, k)[0].entity_id == "intruder"
            assert "intruder" in [
                c.entity_id for c in engine.lookup("germany", k)
            ]
            routed = scored_routes(engine)
            engine.lookup(untouched, k)  # untouched: still cached
            assert scored_routes(engine) == routed
        finally:
            engine.close()

    def test_compact_keeps_the_entries_and_they_equal_a_fresh_lookup(
        self, trained_service, tiny_kg
    ):
        engine = fresh_engine(trained_service)
        try:
            k = 3
            ann_query, keeper = ann_query_naming(engine, tiny_kg, k)
            short = next(
                m
                for e in tiny_kg.entities()
                for m in e.mentions
                if len(m) == 3 and m.isalpha() and e is not keeper
            )
            queries = [ann_query, short[:-1] + "#", keeper.label]
            victim = next(
                e
                for e in tiny_kg.entities()
                if e is not keeper and short not in e.mentions
            )
            engine.apply_mutation(IndexMutation(0, "remove", victim.entity_id))
            before = engine.lookup_batch(queries, k)
            counts = engine.cache.invalidation_counts()
            generation = engine.cache.generation
            assert engine.compact() is True
            assert engine.cache.generation == generation + 1
            assert engine.cache.invalidation_counts() == counts
            assert self.served_from_cache(engine, queries, k) == before
            engine.cache.clear()
            assert engine.lookup_batch(queries, k) == before
        finally:
            engine.close()

    def test_compacting_an_index_that_retrains_clears_the_store(
        self, trained_service
    ):
        """PQ re-trains its codebooks when it compacts: distances move,
        so no cached ANN answer can be vouched for."""
        from repro.index.pq import PQIndex

        mentions, owners = trained_service.index_rows()
        vectors = trained_service.embed_queries(mentions)
        index = PQIndex(vectors.shape[1], m=4, nbits=4, seed=0)
        index.train(vectors)
        index.add(vectors)
        engine = LookupEngine(
            trained_service,
            index,
            owners,
            cache=QueryCache(16, cache_results=True),
        )
        try:
            engine.lookup("germany", 3)
            engine.apply_mutation(IndexMutation(0, "remove", owners[-1]))
            engine.lookup("germany", 3)
            assert engine.serving_stats()["cache_fallback_clears"] == 0
            assert engine.compact() is True
            assert engine.serving_stats()["cache_fallback_clears"] == 1
            assert engine.cache.get_result("germany", 3) is None
        finally:
            engine.close()

    def test_selectivity_counters_exist_without_a_cache_too(
        self, trained_service
    ):
        engine = fresh_engine(trained_service, cache_size=0)
        try:
            stats = engine.serving_stats()
            assert stats["results_stranded"] == 0
            assert stats["cache_fallback_clears"] == 0
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
