"""Tests for repro.kg.graph (KnowledgeGraph)."""

import pytest

from repro.kg.graph import KnowledgeGraph
from repro.kg.schema import Entity, EntityType, Fact, Property


@pytest.fixture
def kg() -> KnowledgeGraph:
    return KnowledgeGraph.build(
        types=[
            EntityType("thing", "thing"),
            EntityType("place", "place", "thing"),
            EntityType("country", "country", "place"),
            EntityType("city", "city", "place"),
            EntityType("capital", "capital", "city"),
        ],
        properties=[
            Property("capital_of", "capital of"),
            Property("population", "population"),
        ],
        entities=[
            Entity("Q1", "germany", ("deutschland", "frg"), ("country",)),
            Entity("Q2", "berlin", (), ("capital",)),
            Entity("Q3", "munich", (), ("city",)),
        ],
        facts=[
            Fact("Q2", "capital_of", object_id="Q1"),
            Fact("Q1", "population", literal="83000000"),
        ],
    )


class TestRegistration:
    def test_duplicate_entity_rejected(self, kg):
        with pytest.raises(ValueError):
            kg.add_entity(Entity("Q1", "again"))

    def test_duplicate_type_rejected(self, kg):
        with pytest.raises(ValueError):
            kg.add_type(EntityType("country", "country"))

    def test_unknown_type_reference_rejected(self, kg):
        with pytest.raises(KeyError):
            kg.add_entity(Entity("Q9", "x", type_ids=("nope",)))

    def test_unknown_parent_type_rejected(self):
        kg = KnowledgeGraph()
        with pytest.raises(KeyError):
            kg.add_type(EntityType("child", "child", "missing_parent"))

    def test_fact_with_unknown_subject_rejected(self, kg):
        with pytest.raises(KeyError):
            kg.add_fact(Fact("Q99", "capital_of", object_id="Q1"))

    def test_fact_with_unknown_property_rejected(self, kg):
        with pytest.raises(KeyError):
            kg.add_fact(Fact("Q1", "nope", object_id="Q2"))

    def test_fact_with_unknown_object_rejected(self, kg):
        with pytest.raises(KeyError):
            kg.add_fact(Fact("Q1", "capital_of", object_id="Q99"))


class TestAccess:
    def test_counts(self, kg):
        assert kg.num_entities == 3
        assert kg.num_facts == 2

    def test_entity_lookup_by_id(self, kg):
        assert kg.entity("Q1").label == "germany"

    def test_unknown_entity_raises(self, kg):
        with pytest.raises(KeyError):
            kg.entity("Q99")

    def test_has_entity(self, kg):
        assert kg.has_entity("Q1")
        assert not kg.has_entity("Q99")


class TestMentionIndex:
    def test_exact_lookup_label(self, kg):
        assert kg.exact_lookup("germany") == {"Q1"}

    def test_exact_lookup_alias(self, kg):
        assert kg.exact_lookup("deutschland") == {"Q1"}

    def test_lookup_is_normalised(self, kg):
        assert kg.exact_lookup("  GERMANY ") == {"Q1"}

    def test_miss_returns_empty(self, kg):
        assert kg.exact_lookup("atlantis") == set()

    def test_mention_strings(self, kg):
        mentions = kg.mention_strings()
        assert "deutschland" in mentions
        assert "berlin" in mentions


class TestTypeHierarchy:
    def test_entities_of_type_direct(self, kg):
        assert kg.entities_of_type("city") == ["Q3"]

    def test_entities_of_type_transitive(self, kg):
        assert set(kg.entities_of_type("city", transitive=True)) == {"Q2", "Q3"}

    def test_descendants(self, kg):
        assert kg.descendant_types("place") == {"country", "city", "capital"}

    def test_ancestors(self, kg):
        assert kg.ancestor_types("capital") == ["city", "place", "thing"]

    def test_root_has_no_ancestors(self, kg):
        assert kg.ancestor_types("thing") == []

    def test_unknown_type_raises(self, kg):
        with pytest.raises(KeyError):
            kg.entities_of_type("nope")

    def test_cycle_detected(self):
        kg = KnowledgeGraph()
        kg.add_type(EntityType("a", "a"))
        kg.add_type(EntityType("b", "b", "a"))
        # Manufacture a cycle by mutating internals (defensive check).
        kg._types["a"] = EntityType("a", "a", "b")
        with pytest.raises(ValueError):
            kg.ancestor_types("a")


class TestAdjacency:
    def test_facts_about(self, kg):
        facts = kg.facts_about("Q2")
        assert len(facts) == 1
        assert facts[0].object_id == "Q1"

    def test_facts_mentioning(self, kg):
        assert len(kg.facts_mentioning("Q1")) == 1

    def test_neighbors_bidirectional(self, kg):
        assert kg.neighbors("Q1") == {"Q2"}
        assert kg.neighbors("Q2") == {"Q1"}

    def test_related(self, kg):
        assert kg.related("Q1", "Q2")
        assert not kg.related("Q1", "Q3")

    def test_literal_facts_not_in_neighbors(self, kg):
        assert "83000000" not in kg.neighbors("Q1")


class TestExport:
    def test_summary(self, kg):
        summary = kg.summary()
        assert summary["entities"] == 3
        assert summary["facts"] == 2

    def test_alias_counts(self, kg):
        assert kg.alias_counts()["Q1"] == 2
