"""Tests for repro.serving.engine (micro-batching lookup engine)."""

import numpy as np
import pytest

from repro.index.partitioned import TypePartitionedIndex
from repro.index.sharded import ShardedIndex
from repro.lookup.cache import QueryCache
from repro.lookup.router import LookupRouter, TypeFilterMap
from repro.serving.engine import LookupEngine


@pytest.fixture(scope="module")
def engine(trained_service):
    """A single-shard engine over the session's trained pipeline."""
    return LookupEngine.from_pipeline(trained_service, max_batch_size=4)


class TestConstruction:
    def test_requires_fitted_pipeline(self, trained_service):
        from repro.core.pipeline import EmbLookup

        with pytest.raises(ValueError):
            LookupEngine.from_pipeline(EmbLookup(trained_service.config))

    def test_row_count_validated(self, trained_service):
        from repro.index.flat import FlatIndex

        with pytest.raises(ValueError):
            LookupEngine(trained_service, FlatIndex(64), ["only-one-row"])

    def test_from_pipeline_sharded(self, trained_service):
        engine = LookupEngine.from_pipeline(trained_service, num_shards=4)
        assert isinstance(engine.index, ShardedIndex)
        assert engine.index.ntotal == len(trained_service.row_entity_ids)
        engine.close()

    def test_cache_size_from_config_default(self, engine, trained_service):
        assert trained_service.config.query_cache_size == 0
        assert engine.cache is None

    def test_index_bytes_positive(self, engine):
        assert engine.index_bytes() > 0


class TestSynchronousLookup:
    def test_matches_pipeline_ranking(self, engine, trained_service):
        """The engine's flat scan ranks exactly like the pipeline's EL-NC
        (uncompressed) path: same entities, distances negated to scores."""
        queries = ["germany", "france", "uni of oxford"]
        got = engine.lookup_batch(queries, 5)
        flat = trained_service.clone_with_compression("none")
        want = flat.lookup_batch(queries, 5)
        for got_row, want_row in zip(got, want):
            assert [c.entity_id for c in got_row] == [
                r.entity_id for r in want_row
            ]
            np.testing.assert_allclose(
                [-c.score for c in got_row],
                [r.distance for r in want_row],
                rtol=1e-5,
                atol=1e-6,
            )

    def test_sharded_engine_matches_single_shard(self, trained_service):
        queries = ["germany", "tokyo", "acme corp"]
        single = LookupEngine.from_pipeline(trained_service, num_shards=1)
        with LookupEngine.from_pipeline(
            trained_service, num_shards=3
        ) as sharded:
            assert single.lookup_batch(queries, 5) == sharded.lookup_batch(
                queries, 5
            )

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_executor_choice_does_not_change_results(
        self, executor, trained_service
    ):
        """The serving answer is executor-invariant: worker processes
        over shared memory return what the in-process scan returns."""
        queries = ["germany", "tokyo", "acme corp", "uni of oxford"]
        with LookupEngine.from_pipeline(
            trained_service, num_shards=3
        ) as baseline:
            want = baseline.lookup_batch(queries, 5)
        with LookupEngine.from_pipeline(
            trained_service, num_shards=3, executor=executor, num_workers=2
        ) as engine:
            assert engine.index.resolved_executor() == executor
            assert engine.lookup_batch(queries, 5) == want
            stats = engine.serving_stats()
            assert stats["worker_respawns"] == 0

    def test_process_engine_teardown_unlinks_shm(self, trained_service):
        import os

        from repro.index import shm

        mine = f"{shm.SEGMENT_PREFIX}-{os.getpid()}-"
        engine = LookupEngine.from_pipeline(
            trained_service, num_shards=2, executor="process"
        )
        try:
            engine.lookup_batch(["germany"], 3)
            assert any(n.startswith(mine) for n in shm.owned_segment_names())
        finally:
            engine.close()
        engine.close()
        assert not any(n.startswith(mine) for n in shm.owned_segment_names())

    def test_stage_timers_accumulate(self, trained_service):
        engine = LookupEngine.from_pipeline(trained_service)
        engine.lookup_batch(["germany"], 3)
        stages = engine.stage_seconds()
        assert set(stages) == {"cache", "route", "embed", "search", "rank"}
        assert stages["embed"] > 0
        assert stages["search"] > 0
        assert engine.query_time.total >= stages["search"]
        engine.reset_timers()
        assert all(v == 0.0 for v in engine.stage_seconds().values())
        assert engine.query_time.total == 0.0


class TestMicroBatching:
    def test_submit_queues_until_flush(self, trained_service):
        engine = LookupEngine.from_pipeline(
            trained_service, max_batch_size=100, max_batch_age=1000.0
        )
        h1 = engine.submit("germany", 3)
        h2 = engine.submit("france", 3)
        assert not h1.done and not h2.done
        assert engine.pending == 2
        assert engine.flush() == 2
        assert h1.done and h2.done
        assert engine.pending == 0

    def test_size_threshold_auto_flushes(self, trained_service):
        engine = LookupEngine.from_pipeline(
            trained_service, max_batch_size=2, max_batch_age=1000.0
        )
        h1 = engine.submit("germany", 3)
        assert not h1.done
        h2 = engine.submit("france", 3)
        assert h1.done and h2.done

    def test_result_forces_flush(self, trained_service):
        engine = LookupEngine.from_pipeline(
            trained_service, max_batch_size=100, max_batch_age=1000.0
        )
        handle = engine.submit("germany", 3)
        row = handle.result  # implicit flush
        assert handle.done
        assert row == engine.lookup_batch(["germany"], 3)[0]

    def test_mixed_k_batches_resolve_correctly(self, trained_service):
        engine = LookupEngine.from_pipeline(
            trained_service, max_batch_size=100, max_batch_age=1000.0
        )
        h3 = engine.submit("germany", 3)
        h5 = engine.submit("germany", 5)
        engine.flush()
        assert len(h3.result) == 3
        assert len(h5.result) == 5

    def test_submit_validates_k(self, engine):
        with pytest.raises(ValueError):
            engine.submit("x", 0)

    def test_flush_empty_queue(self, engine):
        assert engine.flush() == 0


class TestEngineCache:
    def test_result_cache_short_circuits_search(self, trained_service):
        cache = QueryCache(16, cache_results=True)
        engine = LookupEngine.from_pipeline(trained_service)
        engine.cache = cache
        first = engine.lookup_batch(["germany", "france"], 4)
        searches_before = engine.stage_seconds()["embed"]
        embed_calls_before = cache.stats.misses
        second = engine.lookup_batch(["germany", "france"], 4)
        assert second == first
        # Result hits mean no new embedding-store misses.
        assert cache.stats.misses == embed_calls_before
        assert engine.stage_seconds()["embed"] == searches_before

    def test_normalization_shares_entries(self, trained_service):
        cache = QueryCache(16, cache_results=True)
        engine = LookupEngine.from_pipeline(trained_service)
        engine.cache = cache
        engine.lookup_batch(["Germany"], 4)
        hits_before = cache.stats.hits
        engine.lookup_batch(["  germany  "], 4)
        assert cache.stats.hits > hits_before


def assert_candidate_rows_agree(got, want):
    """Same ranked entities, scores equal within tolerance."""
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert [c.entity_id for c in got_row] == [c.entity_id for c in want_row]
        np.testing.assert_allclose(
            [c.score for c in got_row],
            [c.score for c in want_row],
            rtol=1e-6,
            atol=1e-9,
        )


class TestRouterIntegration:
    """Router-in-engine tiers plus type_filter over partitioned indexes."""

    @pytest.fixture(scope="class")
    def routed(self, trained_service):
        engine = LookupEngine.from_pipeline(
            trained_service, partition_by_type=True, router=True
        )
        yield engine
        engine.close()

    def test_builds_partitioned_index_and_router(self, routed, trained_service):
        assert isinstance(routed.index, TypePartitionedIndex)
        assert routed.index.ntotal == len(trained_service.row_entity_ids)
        assert isinstance(routed.router, LookupRouter)
        assert routed.router.ann is None  # the engine IS the ann tier
        assert routed.supports_type_filter

    def test_exact_hit_skips_the_embedding_stage(self, routed, trained_service):
        label = next(trained_service.kg.entities()).label
        routed.reset_timers()
        before = routed.serving_stats()["exact_hits"]
        row = routed.lookup_batch([label], 5)[0]
        assert row and row[0].score == 1.0
        assert routed.serving_stats()["exact_hits"] == before + 1
        assert routed.stage_seconds()["embed"] == 0.0
        assert routed.stage_seconds()["route"] > 0.0

    def test_ann_queries_still_match_unrouted_engine(self, routed, trained_service):
        """Queries no cheap tier claims answer exactly like the plain
        flat engine (the router==pure-ANN acceptance property)."""
        queries = ["germaby republik", "unversity of oxfort"]
        plain = LookupEngine.from_pipeline(trained_service)
        assert_candidate_rows_agree(
            routed.lookup_batch(queries, 5), plain.lookup_batch(queries, 5)
        )

    def test_typed_lookup_scans_only_matching_partitions(
        self, routed, trained_service
    ):
        kg = trained_service.kg
        # The narrowest populated type: its partitions must cover a
        # strict subset of the index.
        per_query, tid = min(
            (
                routed.index.rows_in(
                    routed._type_map.partitions_for(t.type_id)
                ),
                t.type_id,
            )
            for t in kg.types()
            if routed._type_map.allowed(t.type_id)
        )
        assert 0 < per_query < routed.index.ntotal
        before = routed.serving_stats()["type_filtered_rows_scanned"]
        rows = routed.lookup_batch(["zzz unknown query xyz"], 5, type_filter=tid)
        scanned = routed.serving_stats()["type_filtered_rows_scanned"] - before
        assert scanned == per_query
        allowed = routed._type_map.allowed(tid)
        assert rows[0] and all(c.entity_id in allowed for c in rows[0])

    def test_partitioned_typed_results_match_full_scan_post_filtering(
        self, routed, trained_service
    ):
        """The tentpole exactness claim end-to-end: partition-restricted
        typed lookups are identical to type-filtering a full-index scan
        (the fallback path a flat engine takes)."""
        kg = trained_service.kg
        fallback = LookupEngine.from_pipeline(trained_service, router=True)
        assert not isinstance(fallback.index, TypePartitionedIndex)
        queries = ["germaby", "zzz unknown", "uni of oxfort", "tokio"]
        for entity_type in kg.types():
            tid = entity_type.type_id
            assert_candidate_rows_agree(
                routed.lookup_batch(queries, 5, type_filter=tid),
                fallback.lookup_batch(queries, 5, type_filter=tid),
            )

    def test_typed_results_cached_per_scope(self, routed, trained_service):
        tid = next(trained_service.kg.types()).type_id
        cache = QueryCache(16, cache_results=True)
        routed.cache = cache
        try:
            query = "scope isolation probe"
            row = routed.lookup_batch([query], 4, type_filter=tid)[0]
            assert cache.get_result(query, 4) is None
            assert cache.get_result(query, 4, scope=tid) == row
        finally:
            routed.cache = None

    def test_type_filter_without_map_raises(self, trained_service):
        plain = LookupEngine.from_pipeline(trained_service)
        with pytest.raises(RuntimeError, match="TypeFilterMap"):
            plain.lookup_batch(["x"], 3, type_filter="anything")

    def test_unknown_type_filter_raises_key_error(self, routed):
        with pytest.raises(KeyError, match="unknown type"):
            routed.lookup_batch(["x"], 3, type_filter="no-such-type")

    def test_serving_stats_has_router_and_scan_counters(self, routed):
        stats = routed.serving_stats()
        for key in (
            "exact_hits",
            "fuzzy_routed",
            "ann_routed",
            "type_filtered_rows_scanned",
        ):
            assert key in stats

    def test_stats_counters_are_zero_without_router(self, engine):
        stats = engine.serving_stats()
        assert stats["exact_hits"] == 0
        assert stats["fuzzy_routed"] == 0
        assert stats["ann_routed"] == 0
        assert stats["type_filtered_rows_scanned"] == 0
