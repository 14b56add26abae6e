"""Tests for repro.serving.engine (serve-when-idle lookup engine)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.sharded import ShardedIndex
from repro.lookup.cache import QueryCache
from repro.lookup.router import LookupRouter
from repro.serving.engine import LookupEngine
from tests.support import QueryPoison, held_flush


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
    def test_idle_submit_serves_at_once(self, trained_service):
        engine = LookupEngine.from_pipeline(
            trained_service, max_batch_size=100, max_batch_age=1000.0
        )
        handle = engine.submit("germany", 3)
        assert handle.done and handle.exception is None
        assert engine.pending == 0
        assert handle.result == engine.lookup_batch(["germany"], 3)[0]
        stats = engine.serving_stats()
        assert (stats["flushes"], stats["flushed_queries"]) == (1, 1)
        assert engine.flush() == 0

    def test_submit_queues_until_flush(self, trained_service, monkeypatch):
        """Behind a flush in flight submits queue; the flusher's drain
        serves them as one batch, one batched lookup per distinct k."""
        engine = LookupEngine.from_pipeline(
            trained_service, max_batch_size=100, max_batch_age=1000.0
        )
        calls = []
        lookup_batch = engine.lookup_batch

        def spy(queries, k):
            calls.append((list(queries), k))
            return lookup_batch(queries, k)

        monkeypatch.setattr(engine, "lookup_batch", spy)
        with held_flush(engine):
            before = engine.serving_stats()
            h1 = engine.submit("germany", 3)
            h2 = engine.submit("france", 3)
            h5 = engine.submit("germany", 5)
            assert not h1.done and not h2.done and not h5.done
            assert engine.pending == 3
        # Released: the parked flusher's drain served the queue as one
        # batch, one batched lookup per distinct k.
        assert h1.done and h2.done and h5.done
        assert engine.pending == 0
        assert calls[1:] == [(["germany", "france"], 3), (["germany"], 5)]
        assert len(h1.result) == 3 and len(h5.result) == 5
        # (scores of a batched scan differ from a lone one in the last bits)
        assert [c.entity_id for c in h2.result] == [
            c.entity_id for c in lookup_batch(["france"], 3)[0]
        ]
        after = engine.serving_stats()
        assert after["flushes"] - before["flushes"] == 1
        assert after["flushed_queries"] - before["flushed_queries"] == 3

    def test_size_threshold_auto_flushes(self, trained_service):
        """The queued submit that reaches ``max_batch_size`` serves the
        queue on its own thread."""
        engine = LookupEngine.from_pipeline(
            trained_service, max_batch_size=2, max_batch_age=1000.0
        )
        with held_flush(engine):
            h1 = engine.submit("germany", 3)
            assert not h1.done
            h2 = engine.submit("france", 3)
            # The flusher is still parked: this thread served both.
            assert h1.done and h2.done
            assert engine.pending == 0

    def test_age_cap_flushes_on_the_next_submitter(self, trained_service):
        engine = LookupEngine.from_pipeline(
            trained_service, max_batch_size=100, max_batch_age=0.01
        )
        with held_flush(engine):
            h1 = engine.submit("germany", 3)
            assert not h1.done
            time.sleep(0.02)
            h2 = engine.submit("france", 3)
            assert h1.done and h2.done

    def test_result_waits_for_a_batch_in_flight_elsewhere(
        self, trained_service
    ):
        """``result`` of a handle whose batch another thread is serving
        blocks until that thread resolves it (it used to raise)."""
        engine = LookupEngine.from_pipeline(
            trained_service,
            max_batch_size=100,
            max_batch_age=1000.0,
            fault_hook=QueryPoison(["germany"], kind="delay", delay=0.2),
        )
        want = [c.entity_id for c in engine.lookup_batch(["france"], 3)[0]]
        with held_flush(engine):
            slow = engine.submit("germany", 3)
            mate = engine.submit("france", 3)
            flusher = threading.Thread(target=engine.flush)
            flusher.start()
            while engine.pending:  # until the flusher has taken the batch
                time.sleep(0.001)
            assert not mate.done
            assert [c.entity_id for c in mate.result] == want
            assert slow.done and mate.done
            flusher.join(10.0)
            assert not flusher.is_alive()

    def test_no_handle_is_stranded_as_the_flusher_leaves(self, trained_service):
        """8 threads x 200 submits and no final ``flush()``: whichever
        way each submit raced the flusher's exit, it was served once."""
        engine = LookupEngine.from_pipeline(
            trained_service,
            max_batch_size=8,
            fault_hook=lambda normalized: time.sleep(50e-6),
        )
        queries = ["germany", "france", "tokyo", "acme corp", "oxford"]
        handles, errors = [], []

        def worker(ti):
            try:
                mine = [
                    engine.submit(queries[(ti + i) % len(queries)], 3)
                    for i in range(200)
                ]
                handles.append(mine)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(ti,)) for ti in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert engine.pending == 0
        assert sum(len(mine) for mine in handles) == 1600
        for mine in handles:
            for handle in mine:
                assert handle.done and handle.exception is None
                assert len(handle.result) == 3
        stats = engine.serving_stats()
        assert stats["flushed_queries"] == 1600
        assert stats["flushes"] <= 1600
        assert stats["failed_queries"] == 0

    def test_close_waits_for_a_flush_in_flight(self, trained_service):
        """``close()`` releases the index's workers only after the flush
        parked on another thread has resolved (conftest fails the test on
        a leaked shm segment or child process)."""
        engine = LookupEngine.from_pipeline(
            trained_service, num_shards=2, executor="process"
        )
        engine.lookup_batch(["france"], 3)  # workers up
        closer = threading.Thread(target=engine.close)
        with held_flush(engine):
            queued = engine.submit("germany", 3)
            closer.start()
            closer.join(0.2)
            assert closer.is_alive()  # waiting for the parked flusher
            assert queued.done  # close() served the queue first
        closer.join(10.0)
        assert not closer.is_alive()
        stats = engine.serving_stats()
        # The parked query ran its search against a live index.
        assert stats["flushed_queries"] == 2
        assert stats["failed_queries"] == 0

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

    @pytest.mark.parametrize("cached", [False, True])
    def test_ann_path_normalizes_each_query_once(
        self, trained_service, monkeypatch, cached
    ):
        """The engine folds a query on entry; the embedder takes the folded
        string as is, with and without the embedding cache between them."""
        import repro.core.pipeline
        import repro.serving.engine
        from repro.text.tokenize import normalize

        engine = LookupEngine.from_pipeline(trained_service)
        if cached:
            engine.cache = QueryCache(16)
        queries = ["Germny ", "FRANCE x", "berlni"]
        want = engine.lookup_batch(queries, 4)
        folded: list[str] = []

        def spy(text):
            folded.append(text)
            return normalize(text)

        monkeypatch.setattr(repro.serving.engine, "normalize", spy)
        monkeypatch.setattr(repro.core.pipeline, "normalize", spy)
        if cached:
            engine.cache.clear()
        assert engine.lookup_batch(queries, 4) == want
        assert sorted(folded) == sorted(queries)


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
    """Router-in-engine tiers plus type_filter over the full scan."""

    @pytest.fixture(scope="class")
    def routed(self, trained_service):
        engine = LookupEngine.from_pipeline(trained_service, router=True)
        yield engine
        engine.close()

    def test_builds_index_and_router(self, routed, trained_service):
        assert isinstance(routed.index, FlatIndex)
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
        router = routed.router
        queries = [
            query
            for query in (
                "germaby republik",
                "unversity of oxfort",
                "zzz unknown query xyz",
                "qqqq jjjj zzzz",
                "wwwwwwwwwwww",
            )
            if not router.label_table.get(query)
            and not router.wants_fuzzy(query)
        ]
        assert queries, "every candidate query was claimed by a cheap tier"
        plain = LookupEngine.from_pipeline(trained_service)
        assert_candidate_rows_agree(
            routed.lookup_batch(queries, 5), plain.lookup_batch(queries, 5)
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

    def test_serving_stats_has_router_counters(self, routed):
        stats = routed.serving_stats()
        for key in ("exact_hits", "fuzzy_routed", "ann_routed"):
            assert key in stats

    def test_stats_counters_are_zero_without_router(self, engine):
        stats = engine.serving_stats()
        assert stats["exact_hits"] == 0
        assert stats["fuzzy_routed"] == 0
        assert stats["ann_routed"] == 0


class TestExactTierAheadOfCache:
    """The label table is the exact tier's cache: a routed engine answers
    an exact hit before its result cache, which holds only scored
    answers."""

    @pytest.fixture()
    def cached(self, trained_service):
        engine = LookupEngine.from_pipeline(
            trained_service, router=True, cache_size=16
        )
        yield engine
        engine.close()

    @pytest.mark.parametrize("typed", [False, True], ids=["all", "typed"])
    def test_an_exact_hit_neither_probes_nor_fills_the_result_store(
        self, cached, trained_service, typed
    ):
        entity = next(e for e in trained_service.kg.entities() if e.type_ids)
        type_filter = entity.primary_type if typed else None
        cached.lookup_batch(["zzz unknown query xyz"], 5, type_filter=type_filter)
        cache = cached.cache
        stats, size = cache.stats_dict(), len(cache)
        before = cached.serving_stats()["exact_hits"]
        row = cached.lookup_batch([entity.label], 5, type_filter=type_filter)[0]
        assert entity.entity_id in [c.entity_id for c in row]
        assert row[0].score == 1.0
        assert cache.stats_dict() == stats
        assert len(cache) == size
        assert cached.serving_stats()["exact_hits"] == before + 1

    def test_a_label_added_between_the_probes_is_not_cached(
        self, cached, trained_service
    ):
        """A label that appears after the engine's exact probe missed is
        found by the router's second one; that answer has no evidence a
        later write could judge it by, so it is returned, not filed."""
        query = "zorbletron quux"
        entity_id = next(trained_service.kg.entities()).entity_id

        def label_lands(normalized):
            for key in normalized:
                cached.router.label_table.add(key, entity_id)

        cached.fault_hook = label_lands
        row = cached.lookup_batch([query], 5)[0]
        assert row == [(entity_id, 1.0)]
        assert cached.cache.get_results([query], 5) == [None]
