"""LookupRouter tiers, LabelHashTable, TypeFilterMap, normalization unity."""

import numpy as np
import pytest

from repro.lookup import (
    ExactMatchLookup,
    LabelHashTable,
    LookupRouter,
    LookupService,
    QueryCache,
    TypeFilterMap,
    normalize,
)
from repro.lookup.base import Candidate
from repro.lookup.levenshtein import LevenshteinLookup
from repro.lookup.qgram import QGramLookup
from repro.lookup.router import TAU, alpha_ratio
from repro.text.noise import NoiseModel
from repro.text.tokenize import normalize as text_normalize


class StubService(LookupService):
    """Records every batch it serves; returns canned candidates."""

    name = "stub"

    def __init__(self, rows=None):
        super().__init__()
        self.calls: list[list[str]] = []
        self.rows = rows or [Candidate("stub:answer", 0.5)]

    def _lookup_batch(self, queries, k):
        self.calls.append(list(queries))
        return [list(self.rows)[:k] for _ in queries]


class ScoredFuzzy(LookupService):
    """A fuzzy tier with a given best score per query: one candidate at
    that score, or ``rows[query]`` verbatim, or nothing."""

    name = "scored-stub"

    def __init__(self, scores=None, rows=None):
        super().__init__()
        self.calls: list[list[str]] = []
        self.rows = {
            q: [Candidate(f"fuzzy:{q}", s)] for q, s in (scores or {}).items()
        }
        self.rows.update(rows or {})

    def _lookup_batch(self, queries, k):
        self.calls.append(list(queries))
        return [list(self.rows.get(q, []))[:k] for q in queries]


@pytest.fixture(scope="module")
def router_parts(tiny_kg):
    table = LabelHashTable.build(tiny_kg)
    type_map = TypeFilterMap.from_kg(tiny_kg)
    return tiny_kg, table, type_map


class TestNormalizationUnity:
    def test_lookup_normalize_is_the_text_normalizer(self):
        assert normalize is text_normalize

    def test_cache_and_label_table_share_the_helper(self, tiny_kg):
        assert QueryCache._normalize("  Ångström  ") == normalize("  Ångström  ")
        table = LabelHashTable.build(tiny_kg)
        entity = next(tiny_kg.entities())
        assert table.lookup(f"  {entity.label.upper()}  ") == table.lookup(
            entity.label
        )

    def test_cache_normalizes_its_own_keys(self):
        cache = QueryCache(8, cache_results=True)
        cache.put_result("  Germany ", 3, [Candidate("e1", 1.0)])
        assert cache.get_result("germany", 3) == [Candidate("e1", 1.0)]

    def test_cache_result_scope_isolates_type_filters(self):
        cache = QueryCache(8, cache_results=True)
        cache.put_result("germany", 3, [Candidate("e1", 1.0)], scope="country")
        assert cache.get_result("germany", 3) is None
        assert cache.get_result("germany", 3, scope="country") == [
            Candidate("e1", 1.0)
        ]

    def test_exact_match_lookup_agrees_with_label_table(self, tiny_kg):
        exact = ExactMatchLookup.build(tiny_kg, include_aliases=True)
        table = LabelHashTable.build(tiny_kg)
        for entity in list(tiny_kg.entities())[:20]:
            got = {c.entity_id for c in exact.lookup(entity.label, 50)}
            assert set(table.lookup(entity.label)) == got


class TestLabelHashTable:
    def test_build_indexes_labels_and_aliases(self, tiny_kg):
        table = LabelHashTable.build(tiny_kg)
        entity = next(e for e in tiny_kg.entities() if e.aliases)
        assert entity.entity_id in table.lookup(entity.label)
        assert entity.entity_id in table.lookup(entity.aliases[0])
        assert len(table) > 0
        assert table.index_bytes() > 0

    def test_labels_only_mode_skips_aliases(self, tiny_kg):
        table = LabelHashTable.build(tiny_kg, include_aliases=False)
        entity = next(
            e
            for e in tiny_kg.entities()
            if e.aliases and normalize(e.aliases[0]) != normalize(e.label)
        )
        alias_hits = table.lookup(entity.aliases[0])
        assert entity.entity_id not in alias_hits

    def test_add_dedups_entity_ids_and_skips_empty_keys(self):
        table = LabelHashTable()
        table.add("Same", "e1")
        table.add("same ", "e1")
        table.add("   ", "e9")
        assert table.lookup("SAME") == ("e1",)
        assert len(table) == 1

    def test_miss_returns_empty_tuple(self):
        assert LabelHashTable().lookup("anything") == ()


class TestAlphaRatio:
    def test_ratio_values(self):
        assert alpha_ratio("germany") == 1.0
        assert alpha_ratio("b-52") == pytest.approx(0.25)
        assert alpha_ratio("12345") == 0.0
        assert alpha_ratio("   ") == 0.0
        assert alpha_ratio("ab 12") == pytest.approx(0.5)


class TestRouting:
    def test_exact_hit_short_circuits_other_tiers(self, router_parts):
        kg, table, _ = router_parts
        ann, fuzzy = StubService(), StubService()
        router = LookupRouter(table, ann=ann, fuzzy=fuzzy)
        entity = next(kg.entities())
        row = router.lookup(entity.label, 5)
        assert row[0] == Candidate(entity.entity_id, 1.0)
        assert ann.calls == [] and fuzzy.calls == []
        assert router.router_stats() == {
            "exact_hits": 1,
            "fuzzy_routed": 0,
            "ann_routed": 0,
        }

    def test_short_queries_route_to_fuzzy(self, router_parts):
        _, table, _ = router_parts
        ann, fuzzy = StubService(), StubService()
        router = LookupRouter(
            table, ann=ann, fuzzy=fuzzy, min_string_length_to_trigger=6
        )
        row = router.lookup("zzzqq", 5)
        assert row == [Candidate("stub:answer", 0.5)]
        assert fuzzy.calls == [["zzzqq"]] and ann.calls == []
        assert router.router_stats()["fuzzy_routed"] == 1

    def test_low_alpha_queries_route_to_fuzzy(self, router_parts):
        _, table, _ = router_parts
        ann, fuzzy = StubService(), StubService()
        router = LookupRouter(table, ann=ann, fuzzy=fuzzy)
        router.lookup("0x1234-zq", 5)
        assert fuzzy.calls and not ann.calls

    def test_long_alphabetic_queries_route_to_ann(self, router_parts):
        """A low-confidence long query goes to ANN; a confident one does
        not — the fuzzy tier is asked first either way."""
        _, table, _ = router_parts
        unsure, sure = "an unindexed alphabetic query", "a confident long query"
        ann = StubService()
        fuzzy = ScoredFuzzy({unsure: TAU / 2, sure: TAU * 2})
        router = LookupRouter(table, ann=ann, fuzzy=fuzzy)
        assert router.lookup(unsure, 5) == [Candidate("stub:answer", 0.5)]
        assert ann.calls == [[unsure]] and fuzzy.calls == [[unsure]]
        assert router.lookup(sure, 5) == [Candidate(f"fuzzy:{sure}", TAU * 2)]
        assert ann.calls == [[unsure]] and fuzzy.calls[-1] == [sure]
        assert router.router_stats() == {
            "exact_hits": 0,
            "fuzzy_routed": 1,
            "ann_routed": 1,
        }

    def test_without_fuzzy_tier_short_queries_fall_to_ann(self, router_parts):
        _, table, _ = router_parts
        ann = StubService()
        router = LookupRouter(table, ann=ann, fuzzy=None)
        router.lookup("zq", 5)
        assert ann.calls == [["zq"]]

    def test_missing_ann_tier_raises(self, router_parts):
        _, table, _ = router_parts
        router = LookupRouter(table, ann=None, fuzzy=None)
        with pytest.raises(RuntimeError, match="no ANN tier"):
            router.lookup("an unindexed alphabetic query", 5)

    def test_mixed_batch_preserves_positions(self, router_parts):
        kg, table, _ = router_parts
        ann, fuzzy = StubService(), StubService()
        router = LookupRouter(table, ann=ann, fuzzy=fuzzy)
        entity = next(kg.entities())
        rows = router.lookup_batch(
            [entity.label, "zq", "an unindexed alphabetic query"], 4
        )
        assert rows[0][0].entity_id == entity.entity_id
        assert rows[1] == [Candidate("stub:answer", 0.5)]
        assert rows[2] == [Candidate("stub:answer", 0.5)]

    def test_tier_timers_reset(self, router_parts):
        kg, table, _ = router_parts
        router = LookupRouter(table, ann=StubService(), fuzzy=StubService())
        router.lookup(next(kg.entities()).label, 3)
        assert router.tier_seconds()["exact"] > 0
        router.reset_timers()
        assert all(v == 0.0 for v in router.tier_seconds().values())

    def test_build_constructs_fuzzy_by_name(self, tiny_kg):
        router = LookupRouter.build(tiny_kg, ann=StubService(), fuzzy="qgram")
        assert isinstance(router.fuzzy, QGramLookup)
        ready = LevenshteinLookup.build(tiny_kg)
        assert LookupRouter.build(tiny_kg, fuzzy=ready).fuzzy is ready
        for name in ("nope", "levenshtein"):
            with pytest.raises(ValueError, match="fuzzy"):
                LookupRouter.build(tiny_kg, fuzzy=name)

    @pytest.mark.parametrize(
        "service", [QGramLookup, LevenshteinLookup], ids=["qgram", "levenshtein"]
    )
    def test_entity_mutations_reach_every_local_tier(self, tiny_kg, service):
        router = LookupRouter.build(
            tiny_kg,
            ann=StubService(),
            fuzzy=service.build(tiny_kg, include_aliases=True),
        )
        victim, short = next(
            (e, m)
            for e in tiny_kg.entities()
            for m in e.mentions
            if len(m) == 3 and m.isalpha()
        )
        router.remove_entity(victim.entity_id)
        router.add_entity("e-new", ("zq7", "zq7 long form"), victim.type_ids)
        assert router.label_table.lookup(short) == ()
        assert router.label_table.lookup("zq7") == ("e-new",)
        allowed = router.type_map.allowed(victim.type_ids[0])
        assert "e-new" in allowed and victim.entity_id not in allowed
        # The fuzzy tier answers like one built over the resulting state:
        # dropped rows leave no trace in scores or tie order.
        twin = type(router.fuzzy)(include_aliases=True)
        for entity in tiny_kg.entities():
            if entity.entity_id != victim.entity_id:
                for mention in entity.mentions:
                    twin.add(mention, entity.entity_id)
        twin.add("zq7", "e-new")
        twin.add("zq7 long form", "e-new")
        for query in (short, short[:-1] + "#", "zq8", "us", "b-52"):
            got = router.fuzzy.lookup(query, 5)
            assert got == twin.lookup(query, 5)
            assert victim.entity_id not in [c.entity_id for c in got]
        assert router.fuzzy.lookup("zq8", 3)[0].entity_id == "e-new"

    def test_fuzzy_tier_without_mutators_refuses_mutations(self, router_parts):
        _, table, _ = router_parts
        router = LookupRouter(table, fuzzy=StubService())
        size = len(table)
        with pytest.raises(ValueError, match="cannot follow"):
            router.add_entity("e-new", ("zq7",))
        with pytest.raises(ValueError, match="cannot follow"):
            router.remove_entity("e-new")
        assert len(table) == size

    def test_validates_knobs(self, router_parts):
        _, table, _ = router_parts
        with pytest.raises(ValueError, match="min_string_length"):
            LookupRouter(table, min_string_length_to_trigger=-1)
        with pytest.raises(ValueError, match="min_alpha_ratio"):
            LookupRouter(table, min_alpha_ratio=1.5)

    def test_index_bytes_sums_tiers(self, tiny_kg):
        router = LookupRouter.build(tiny_kg, ann=StubService(), fuzzy="qgram")
        assert (
            router.index_bytes()
            >= router.label_table.index_bytes() + router.fuzzy.index_bytes()
        )


class TestCascade:
    """``serve_local`` keeps the fuzzy tier's answer iff its best score
    reaches τ or the query is too short / symbolic for the tower, and
    ``wants_fuzzy`` is that same decision for one query."""

    LONG = "a long alphabetic query"

    def route(self, router, query, type_filter=None):
        """``serve_local``'s answer and tier for ``query``; unfiltered,
        ``wants_fuzzy`` must have taken the same decision."""
        out, tiers = router.serve_local([query], 5, type_filter)
        if type_filter is None:
            assert router.wants_fuzzy(query) == (tiers[0] == "fuzzy")
        return out[0], tiers[0]

    def test_best_score_below_tau_goes_to_ann(self, router_parts):
        _, table, _ = router_parts
        below = float(np.nextafter(TAU, 0.0))
        router = LookupRouter(table, fuzzy=ScoredFuzzy({self.LONG: below}))
        assert self.route(router, self.LONG) == (None, "ann")
        empty = LookupRouter(table, fuzzy=ScoredFuzzy())
        assert self.route(empty, self.LONG) == (None, "ann")

    def test_best_score_at_tau_stays_on_the_fuzzy_tier(self, router_parts):
        _, table, _ = router_parts
        router = LookupRouter(table, fuzzy=ScoredFuzzy({self.LONG: TAU}))
        row, tier = self.route(router, self.LONG)
        assert tier == "fuzzy"
        assert row == [Candidate(f"fuzzy:{self.LONG}", TAU)]

    @pytest.mark.parametrize("score", [None, 0.0, TAU / 2, 1.0])
    @pytest.mark.parametrize("query", ["zq", "zqx", "b-52 #7", "740.22"])
    def test_short_or_symbolic_query_stays_whatever_its_score(
        self, router_parts, query, score
    ):
        _, table, _ = router_parts
        fuzzy = ScoredFuzzy({} if score is None else {query: score})
        router = LookupRouter(table, fuzzy=fuzzy)
        row, tier = self.route(router, query)
        assert tier == "fuzzy" and row == fuzzy.rows.get(query, [])

    def test_the_typed_row_is_judged_after_filtering(self, router_parts):
        _, table, _ = router_parts
        type_map = TypeFilterMap({"t": frozenset({"inside"})})
        best = Candidate("outside", 1.0)
        rows = {
            "outside first": [best, Candidate("inside", TAU / 2)],
            "inside at tau": [best, Candidate("inside", TAU)],
        }
        router = LookupRouter(
            table, fuzzy=ScoredFuzzy(rows=rows), type_map=type_map
        )
        # Unfiltered, both are confident; filtered, only the second is.
        for query in rows:
            assert self.route(router, query)[1] == "fuzzy"
        assert self.route(router, "outside first", "t") == (None, "ann")
        assert self.route(router, "inside at tau", "t") == (
            [Candidate("inside", TAU)],
            "fuzzy",
        )

    def test_wants_fuzzy_agrees_with_serve_local_on_a_trace_sample(
        self, tiny_kg
    ):
        """500 queries mixed as ``benchmarks/e2e``'s ``trace_open``: half
        verbatim mentions, a quarter typo'd labels, a quarter 3-character
        prefixes — plus strings no label is near."""
        router = LookupRouter.build(tiny_kg, ann=StubService())
        rng = np.random.default_rng(25)
        noise = NoiseModel(max_edits=2, seed=26)
        entities = list(tiny_kg.entities())
        queries = []
        for i in range(500):
            entity = entities[int(rng.integers(0, len(entities)))]
            roll = i % 4
            if roll < 2:
                queries.append(entity.mentions[0])
            elif roll == 2:
                queries.append(noise.corrupt(entity.label))
            else:
                queries.append(entity.label[:3])
        queries += ["qqqq jjjj zzzz", "wwwwwwwwwwww", "xylophonic vortex"]
        normalized = [normalize(q) for q in queries]
        _, tiers = router.serve_local(normalized, 10)
        for query, tier in zip(normalized, tiers):
            if tier != "exact":
                assert router.wants_fuzzy(query) == (tier == "fuzzy"), query
        assert {"exact", "fuzzy", "ann"} <= set(tiers)


class TestTypeFilter:
    def test_supports_type_filter(self, router_parts):
        _, table, _ = router_parts
        assert LookupRouter(table).supports_type_filter
        assert not StubService().supports_type_filter
        with pytest.raises(NotImplementedError, match="type_filter"):
            StubService().lookup("x", 3, type_filter="country")

    def test_type_map_matches_kg_transitive_membership(self, router_parts):
        kg, _, type_map = router_parts
        for entity_type in kg.types():
            tid = entity_type.type_id
            assert type_map.allowed(tid) == set(
                kg.entities_of_type(tid, transitive=True)
            )
        with pytest.raises(KeyError, match="unknown type"):
            type_map.allowed("no-such-type")

    def test_a_write_touches_only_the_entitys_own_types(self, tiny_kg):
        """``remove_entity`` / ``add_entity`` read and replace the
        memberships of the entity's own types and no other; what a reader
        took before the write is unchanged (old-or-new per type)."""

        class Recording(dict):
            def __init__(self, items):
                super().__init__(items)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

            def items(self):
                self.read.update(self.keys())
                return super().items()

            def values(self):
                self.read.update(self.keys())
                return super().values()

        type_map = TypeFilterMap.from_kg(tiny_kg)
        types = [t.type_id for t in tiny_kg.types()]
        truth = {
            tid: set(tiny_kg.entities_of_type(tid, transitive=True))
            for tid in types
        }
        victim = next(e for e in tiny_kg.entities() if e.type_ids)
        own = {tid for tid in types if victim.entity_id in truth[tid]}
        assert own and len(own) < len(types)
        before = {tid: type_map.allowed(tid) for tid in types}
        type_map._allowed = spy = Recording(type_map._allowed)
        type_map.remove_entity(victim.entity_id)
        assert spy.read == own
        assert {
            tid for tid in types if type_map.allowed(tid) is not before[tid]
        } == own
        for tid in types:
            assert before[tid] == truth[tid]
            assert type_map.allowed(tid) == truth[tid] - {victim.entity_id}
        spy.read.clear()
        type_map.add_entity(victim.entity_id, sorted(own))
        assert spy.read == own
        for tid in types:
            assert type_map.allowed(tid) == truth[tid]
            assert len(type_map.allowed(tid)) == len(truth[tid])

    def test_exact_hit_filtered_by_type(self, router_parts):
        kg, table, type_map = router_parts
        ann = StubService()
        router = LookupRouter(table, ann=ann, type_map=type_map)
        entity = next(e for e in kg.entities() if e.type_ids)
        tid = entity.type_ids[0]
        row = router.lookup(entity.label, 5, type_filter=tid)
        assert row[0] == Candidate(entity.entity_id, 1.0)
        hit_ids = {c.entity_id for c in row}
        assert hit_ids <= type_map.allowed(tid)

    def test_wrong_type_exact_hit_falls_through_to_ann(self, router_parts):
        kg, table, type_map = router_parts
        entity = next(e for e in kg.entities() if e.type_ids)
        other = next(
            t.type_id
            for t in kg.types()
            if entity.entity_id not in type_map.allowed(t.type_id)
        )
        allowed = type_map.allowed(other)
        some_allowed = next(iter(allowed))
        ann = StubService(
            rows=[Candidate(entity.entity_id, 0.9), Candidate(some_allowed, 0.1)]
        )
        router = LookupRouter(table, ann=ann, type_map=type_map)
        row = router.lookup(entity.label, 5, type_filter=other)
        # The exact hit is inadmissible, so the ANN tier answers and its
        # inadmissible candidates are post-filtered out.
        assert ann.calls
        assert row == [Candidate(some_allowed, 0.1)]

    def test_type_filter_without_map_raises(self, router_parts):
        _, table, _ = router_parts
        router = LookupRouter(table, ann=StubService())
        with pytest.raises(RuntimeError, match="TypeFilterMap"):
            router.lookup("query", 3, type_filter="country")
