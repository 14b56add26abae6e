"""Tests for repro.lookup.cache and its wiring into the services."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.lookup.cache import UNFILED, QueryCache
from repro.lookup.embedder_service import EmbedderLookupService
from repro.lookup.emblookup_service import EmbLookupService


class CountingEmbedder:
    """Deterministic hash embedder that counts embed() calls."""

    def __init__(self, dim=8):
        self._dim = dim
        self.calls = 0
        self.strings_embedded = 0

    @property
    def dim(self):
        return self._dim

    def embed(self, mentions):
        self.calls += 1
        self.strings_embedded += len(mentions)
        out = np.zeros((len(mentions), self._dim), dtype=np.float32)
        for i, m in enumerate(mentions):
            rng = np.random.default_rng(abs(hash(m)) % (2**32))
            out[i] = rng.normal(size=self._dim)
        return out


class TestQueryCache:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            QueryCache(0)

    def test_embedding_roundtrip_and_counters(self):
        cache = QueryCache(4)
        assert cache.get_embedding("usa") is None
        cache.put_embedding("usa", np.ones(3))
        np.testing.assert_array_equal(cache.get_embedding("usa"), np.ones(3))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_stored_embedding_is_copied(self):
        cache = QueryCache(4)
        vec = np.ones(3)
        cache.put_embedding("q", vec)
        vec[:] = 0.0
        np.testing.assert_array_equal(cache.get_embedding("q"), np.ones(3))

    def test_lru_eviction_order(self):
        cache = QueryCache(2)
        cache.put_embedding("a", np.zeros(1))
        cache.put_embedding("b", np.zeros(1))
        cache.get_embedding("a")  # refresh "a": now "b" is the LRU entry
        cache.put_embedding("c", np.zeros(1))
        assert cache.get_embedding("b") is None
        assert cache.get_embedding("a") is not None
        assert cache.stats.evictions == 1

    def test_result_store_disabled_by_default(self):
        cache = QueryCache(4)
        assert not cache.caches_results
        cache.put_result("q", 5, [("e", 1.0)])
        assert cache.get_result("q", 5) is None

    def test_result_store_keyed_by_query_and_k(self):
        cache = QueryCache(4, cache_results=True)
        cache.put_result("q", 5, ["row5"])
        assert cache.get_result("q", 5) == ["row5"]
        assert cache.get_result("q", 10) is None

    def test_clear_and_len(self):
        cache = QueryCache(4, cache_results=True)
        cache.put_embedding("a", np.zeros(1))
        cache.put_result("a", 3, [])
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_stats_dict_keys(self):
        assert set(QueryCache(1).stats_dict()) == {
            "hits",
            "misses",
            "evictions",
            "hit_rate",
        }


def scored_row(scores):
    """A full answer: one ``(entity id, score)`` pair per score, best first."""
    return [(f"e{i}", score) for i, score in enumerate(scores)]


class TestNarrowInvalidation:
    """``publish`` strands an answer iff the write can change it — one
    test per clause of the rule."""

    def cache(self):
        return QueryCache(8, cache_results=True)

    def test_publish_counts_generations_and_a_bare_one_strands_nothing(self):
        cache = self.cache()
        cache.put_results(
            ["exact", "scored"],
            2,
            [scored_row([1.0]), scored_row([0.9, 0.5])],
            evidence=[None, ("t", "ev")],
        )
        cache.put_results(["typed"], 2, [scored_row([1.0])], scope="country")
        before = cache.generation
        assert cache.publish() == before + 1 == cache.generation
        assert cache.get_result("exact", 2) == scored_row([1.0])
        assert cache.get_result("scored", 2) == scored_row([0.9, 0.5])
        assert cache.get_result("typed", 2, scope="country") is not None
        assert cache.invalidation_counts() == {
            "results_stranded": 0,
            "cache_fallback_clears": 0,
        }

    def test_a_probe_and_a_fill_pinned_to_an_older_generation(self):
        cache = self.cache()
        pinned = cache.generation
        cache.put_results(["q"], 1, [scored_row([1.0])], generation=pinned)
        assert cache.get_results(["q"], 1, generation=pinned) != [None]
        cache.publish()
        misses = cache.stats.misses
        assert cache.get_results(["q"], 1, generation=pinned) == [None]
        assert cache.stats.misses == misses + 1
        cache.put_results(["late"], 1, [scored_row([1.0])], generation=pinned)
        assert cache.get_result("late", 1) is None, "stale fill was stored"
        # Unpinned, and pinned to the current generation, still work.
        assert cache.get_result("q", 1) == scored_row([1.0])
        assert cache.get_results(["q"], 1, generation=cache.generation) != [None]

    def test_a_removed_entity_strands_the_scored_answers_that_name_it(self):
        cache = self.cache()
        cache.put_results(
            ["names e1", "names e0 only"],
            2,
            [scored_row([0.9, 0.8]), scored_row([0.9])],
            evidence=[("t", 1), ("t", 2)],
        )
        cache.publish(entities=["e1"])
        assert cache.get_result("names e1", 2) is None
        assert cache.get_result("names e0 only", 2) is not None
        cache.publish(entities=["e1", "unknown"])  # nothing left to strand
        assert cache.invalidation_counts()["results_stranded"] == 1

    def test_appended_rows_tie_strands_below_stays_short_strands(self):
        cache = self.cache()
        cache.put_results(
            ["tie", "below", "short", "nan"],
            2,
            [
                scored_row([0.9, 0.5]),
                scored_row([0.9, 0.6]),
                scored_row([0.9]),
                scored_row([0.9, 0.1]),
            ],
            evidence=[("t", "tie"), ("t", "below"), ("t", "short"), ("t", "nan")],
        )
        best = {"tie": 0.5, "below": 0.5, "short": -1e300, "nan": float("nan")}
        seen = []

        def scorer(evidence):
            seen.append(list(evidence))
            return [best[e] for e in evidence]

        cache.publish(entering={"t": scorer})
        assert len(seen) == 1 and sorted(seen[0]) == sorted(best)  # one batch
        assert cache.get_result("tie", 2) is None
        assert cache.get_result("below", 2) == scored_row([0.9, 0.6])
        assert cache.get_result("short", 2) is None
        assert cache.get_result("nan", 2) is None
        assert cache.invalidation_counts() == {
            "results_stranded": 3,
            "cache_fallback_clears": 0,
        }

    def test_a_tier_without_a_scorer_goes_whole_and_is_a_fallback(self):
        cache = self.cache()
        cache.put_results(
            ["a", "b", "exact"],
            1,
            [scored_row([0.9]), scored_row([0.8]), scored_row([1.0])],
            evidence=[("scored", 1), ("unscored", 2), None],
        )
        cache.publish(entering={"scored": lambda evidence: [0.0] * len(evidence)})
        assert cache.get_result("a", 1) is not None
        assert cache.get_result("b", 1) is None
        assert cache.get_result("exact", 1) is not None
        assert cache.invalidation_counts() == {
            "results_stranded": 0,
            "cache_fallback_clears": 1,
        }

    def test_any_write_strands_the_scoped_answers_whole(self):
        cache = self.cache()
        cache.put_results(["q"], 1, [scored_row([1.0])], scope="country")
        cache.put_results(["q"], 1, [scored_row([1.0])])
        cache.publish(entities=["unrelated"])
        assert cache.get_result("q", 1, scope="country") is None
        assert cache.get_result("q", 1) is not None
        assert cache.invalidation_counts()["cache_fallback_clears"] == 1

    def test_whole_clears_results_but_not_embeddings(self):
        cache = self.cache()
        cache.put_embedding("q", np.ones(3))
        cache.put_results(["q"], 1, [scored_row([1.0])], evidence=[("t", 1)])
        cache.publish(whole=True)
        assert cache.get_result("q", 1) is None
        assert cache.get_embedding("q") is not None
        assert cache.invalidation_counts()["cache_fallback_clears"] == 1
        # Nothing is left behind for a later write to trip over.
        cache.publish(entities=["e0"], entering={})

    def test_eviction_and_refill_keep_the_bookkeeping_exact(self):
        cache = QueryCache(2, cache_results=True)
        cache.put_results(["a"], 1, [scored_row([0.9])], evidence=[("t", "a")])
        # Refilled without evidence: the old bookkeeping must go with it.
        cache.put_results(["a"], 1, [scored_row([0.7])])
        cache.publish(entities=["e0"], entering={})
        assert cache.get_result("a", 1) == scored_row([0.7])
        # Evicted: nothing may still name e0 or be offered to a scorer.
        cache.put_results(["b"], 1, [scored_row([0.9])], evidence=[("t", "b")])
        cache.put_results(["c", "d"], 1, [scored_row([1.0])] * 2)
        assert cache.get_result("b", 1) is None
        cache.publish(
            entities=["e0"],
            entering={"t": lambda evidence: pytest.fail("evicted answer scored")},
        )
        assert cache.invalidation_counts()["results_stranded"] == 0

    def test_a_gated_answer_is_scored_only_by_rows_sharing_a_token(self):
        """A row that shares no token with a gated answer's gate cannot
        enter it — not even one short of ``k`` — so it is not scored."""
        cache = self.cache()
        cache.put_results(
            ["near", "far", "short far", "open"],
            2,
            [
                scored_row([0.9, 0.5]),
                scored_row([0.9, 0.5]),
                scored_row([0.9]),
                scored_row([0.9, 0.5]),
            ],
            evidence=[
                ("t", "near", frozenset({"ab", "xy"})),
                ("t", "far", frozenset({"zz"})),
                ("t", "short far", frozenset({"zz", "qq"})),
                ("t", "open"),
            ],
        )
        seen = []

        def scorer(evidence):
            seen.extend(evidence)
            return [1.0] * len(evidence)

        cache.publish(entering={"t": scorer}, tokens={"ab", "cd"})
        assert sorted(seen) == ["near", "open"]
        assert cache.get_result("near", 2) is None
        assert cache.get_result("open", 2) is None
        assert cache.get_result("far", 2) is not None
        assert cache.get_result("short far", 2) == scored_row([0.9])
        assert cache.invalidation_counts()["results_stranded"] == 2
        # Without tokens every answer is within reach.
        seen.clear()
        cache.publish(entering={"t": scorer})
        assert sorted(seen) == ["far", "short far"]

    def test_an_evicted_gated_answer_leaves_no_token_behind(self):
        cache = QueryCache(1, cache_results=True)
        cache.put_results(
            ["a"], 1, [scored_row([0.9])], evidence=[("t", "a", frozenset("x"))]
        )
        cache.put_results(["b"], 1, [scored_row([1.0])])  # evicts "a"
        cache.put_results(
            ["c"], 1, [scored_row([0.9])], evidence=[("t", "c", frozenset("y"))]
        )  # evicts "b", settles "a"
        cache.publish(
            entering={"t": lambda evidence: pytest.fail("evicted answer scored")},
            tokens={"x"},
        )
        assert cache.get_result("c", 1) is not None

    def test_an_unfiled_answer_is_not_stored(self):
        cache = self.cache()
        cache.put_results(
            ["degraded", "whole"],
            2,
            [scored_row([0.9]), scored_row([0.9, 0.5])],
            evidence=[UNFILED, ("t", 1)],
        )
        cache.put_results(
            ["typed"], 2, [scored_row([0.9])], scope="c", evidence=[UNFILED]
        )
        assert cache.get_result("degraded", 2) is None
        assert cache.get_result("typed", 2, scope="c") is None
        assert cache.get_result("whole", 2) == scored_row([0.9, 0.5])

    def test_a_refilled_scoped_answer_is_still_stranded_by_a_write(self):
        cache = self.cache()
        for score in (0.9, 0.8):  # the second fill displaces the first
            cache.put_results(["q"], 1, [scored_row([score])], scope="country")
        cache.put_results(["s"], 1, [scored_row([0.5])], evidence=[("t", 0)])
        cache.publish(entities=["unrelated"])
        assert cache.get_result("q", 1, scope="country") is None


class TestEmbedderServiceCache:
    def test_repeated_queries_skip_the_embedder(self, tiny_kg):
        embedder = CountingEmbedder()
        service = EmbedderLookupService.build(
            tiny_kg, embedder=embedder, cache_size=16
        )
        queries = ["Germany", "France", "Germany"]
        first = service.lookup_batch(queries, 5)
        before = embedder.strings_embedded
        second = service.lookup_batch(queries, 5)
        assert embedder.strings_embedded == before  # all three cached
        assert first == second
        # A hit interleaved with a miss: the engine reads these rows' bytes
        # back as float32 (LookupEngine._entering).
        vectors = service.cache.get_embeddings(["germany", "spain"], embedder.embed)
        assert vectors.dtype == np.float32 and vectors.flags.c_contiguous
        assert vectors.shape == (2, embedder.dim)

    def test_cache_disabled_by_default(self, tiny_kg):
        service = EmbedderLookupService.build(
            tiny_kg, embedder=CountingEmbedder()
        )
        assert service.cache is None

    def test_duplicate_queries_in_one_batch(self, tiny_kg):
        service = EmbedderLookupService.build(
            tiny_kg, embedder=CountingEmbedder(), cache_size=16
        )
        rows = service.lookup_batch(["x", "x", "x"], 3)
        assert rows[0] == rows[1] == rows[2]


class TestEmptyIndexServices:
    """Satellite: no k clamp — empty indexes yield empty candidate lists."""

    def test_embedder_service_empty_index(self):
        service = EmbedderLookupService(CountingEmbedder())
        assert service.lookup_batch(["anything", "else"], 7) == [[], []]

    def test_k_exceeding_ntotal_returns_all_rows(self, tiny_kg):
        service = EmbedderLookupService.build(
            tiny_kg, embedder=CountingEmbedder()
        )
        n = service._index.ntotal
        rows = service.lookup_batch(["germany"], n + 50)
        assert len(rows[0]) == n  # padded (-1) rows filtered, none invented


class TestEmbLookupServiceCache:
    def test_config_flag_enables_result_cache(self, trained_service):
        pipeline = copy.copy(trained_service)
        pipeline.config = dataclasses.replace(
            trained_service.config, query_cache_size=8
        )
        service = EmbLookupService(pipeline)
        assert service.cache is not None
        assert service.cache.caches_results

    def test_cached_results_identical_and_hit_counted(self, trained_service):
        cache = QueryCache(8, cache_results=True)
        service = EmbLookupService(trained_service, cache=cache)
        first = service.lookup_batch(["germany", "france"], 5)
        hits_before = cache.stats.hits
        second = service.lookup_batch(["germany", "france"], 5)
        assert second == first
        assert cache.stats.hits >= hits_before + 2

    def test_no_cache_by_default(self, trained_service):
        assert EmbLookupService(trained_service).cache is None
