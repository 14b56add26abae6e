"""In-memory knowledge-graph store with the access paths lookup needs."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

import networkx as nx

from repro.kg.schema import Entity, EntityType, Fact, Property
from repro.text.tokenize import normalize

__all__ = ["KnowledgeGraph"]


class KnowledgeGraph:
    """The quadruplet <E, T, P, F> with indexed access.

    Maintains:

    - entity / type / property registries keyed by id,
    - an exact-match mention index (normalised mention -> entity ids),
    - adjacency (facts by subject and by object) for the annotation systems'
      context scoring,
    - per-type entity lists for CTA and type-based triplet mining.
    """

    def __init__(self) -> None:
        self._entities: dict[str, Entity] = {}
        self._types: dict[str, EntityType] = {}
        self._properties: dict[str, Property] = {}
        self._facts: list[Fact] = []
        self._facts_by_subject: dict[str, list[Fact]] = defaultdict(list)
        self._facts_by_object: dict[str, list[Fact]] = defaultdict(list)
        self._mention_index: dict[str, set[str]] = defaultdict(set)
        self._entities_by_type: dict[str, list[str]] = defaultdict(list)

    # -- registration ---------------------------------------------------------------

    def add_type(self, entity_type: EntityType) -> None:
        """Register a type; its parent (if any) must already exist."""
        if entity_type.type_id in self._types:
            raise ValueError(f"duplicate type id {entity_type.type_id!r}")
        if entity_type.parent_id is not None and entity_type.parent_id not in self._types:
            raise KeyError(
                f"type {entity_type.type_id!r} references unknown parent "
                f"{entity_type.parent_id!r}"
            )
        self._types[entity_type.type_id] = entity_type

    def add_property(self, prop: Property) -> None:
        """Register a relation property."""
        if prop.property_id in self._properties:
            raise ValueError(f"duplicate property id {prop.property_id!r}")
        self._properties[prop.property_id] = prop

    def add_entity(self, entity: Entity) -> None:
        """Register an entity and index its mentions and types."""
        if entity.entity_id in self._entities:
            raise ValueError(f"duplicate entity id {entity.entity_id!r}")
        for type_id in entity.type_ids:
            if type_id not in self._types:
                raise KeyError(
                    f"entity {entity.entity_id!r} references unknown type {type_id!r}"
                )
        self._entities[entity.entity_id] = entity
        for mention in entity.mentions:
            self._mention_index[normalize(mention)].add(entity.entity_id)
        for type_id in entity.type_ids:
            self._entities_by_type[type_id].append(entity.entity_id)

    def add_fact(self, fact: Fact) -> None:
        """Register a fact; subject/property/object must be known."""
        if fact.subject_id not in self._entities:
            raise KeyError(f"fact references unknown subject {fact.subject_id!r}")
        if fact.property_id not in self._properties:
            raise KeyError(f"fact references unknown property {fact.property_id!r}")
        if fact.object_id is not None and fact.object_id not in self._entities:
            raise KeyError(f"fact references unknown object {fact.object_id!r}")
        self._facts.append(fact)
        self._facts_by_subject[fact.subject_id].append(fact)
        if fact.object_id is not None:
            self._facts_by_object[fact.object_id].append(fact)

    # -- registries -------------------------------------------------------------------

    @property
    def num_entities(self) -> int:
        return len(self._entities)

    @property
    def num_facts(self) -> int:
        return len(self._facts)

    def entities(self) -> Iterator[Entity]:
        """Iterate entities in insertion order."""
        return iter(self._entities.values())

    def entity_ids(self) -> list[str]:
        """All entity ids in insertion order."""
        return list(self._entities)

    def types(self) -> Iterator[EntityType]:
        """Iterate registered types."""
        return iter(self._types.values())

    def properties(self) -> Iterator[Property]:
        """Iterate registered properties."""
        return iter(self._properties.values())

    def facts(self) -> Iterator[Fact]:
        """Iterate facts in insertion order."""
        return iter(self._facts)

    def entity(self, entity_id: str) -> Entity:
        """The entity with ``entity_id`` (KeyError when unknown)."""
        try:
            return self._entities[entity_id]
        except KeyError:
            raise KeyError(f"unknown entity id {entity_id!r}") from None

    def has_entity(self, entity_id: str) -> bool:
        """True when ``entity_id`` is registered."""
        return entity_id in self._entities

    def type(self, type_id: str) -> EntityType:
        """The type with ``type_id`` (KeyError when unknown)."""
        try:
            return self._types[type_id]
        except KeyError:
            raise KeyError(f"unknown type id {type_id!r}") from None

    def property(self, property_id: str) -> Property:
        """The property with ``property_id`` (KeyError when unknown)."""
        try:
            return self._properties[property_id]
        except KeyError:
            raise KeyError(f"unknown property id {property_id!r}") from None

    # -- access paths -----------------------------------------------------------------

    def exact_lookup(self, mention: str) -> set[str]:
        """Entity ids whose label or alias normalises to ``mention``."""
        return set(self._mention_index.get(normalize(mention), ()))

    def mention_rows(
        self, include_aliases: bool = True
    ) -> Iterator[tuple[str, str]]:
        """``(normalised mention, entity id)`` for every indexed surface form.

        Entities in insertion order, each entity's label first and then
        (when ``include_aliases``) its aliases.  This is the one walk that
        every lookup index builds its rows from, so row ``i`` means the
        same surface form in all of them.
        """
        for entity in self._entities.values():
            yield normalize(entity.label), entity.entity_id
            if include_aliases:
                for alias in entity.aliases:
                    yield normalize(alias), entity.entity_id

    def mention_strings(self) -> list[str]:
        """All distinct normalised mentions in the graph."""
        return list(self._mention_index)

    def entities_of_type(self, type_id: str, transitive: bool = False) -> list[str]:
        """Entity ids having ``type_id`` (optionally via subtype closure)."""
        if type_id not in self._types:
            raise KeyError(f"unknown type id {type_id!r}")
        if not transitive:
            return list(self._entities_by_type.get(type_id, ()))
        wanted = {type_id} | self.descendant_types(type_id)
        result: list[str] = []
        for tid in wanted:
            result.extend(self._entities_by_type.get(tid, ()))
        return result

    def descendant_types(self, type_id: str) -> set[str]:
        """All subtype ids of ``type_id`` (excluding itself)."""
        children = defaultdict(list)
        for t in self._types.values():
            if t.parent_id is not None:
                children[t.parent_id].append(t.type_id)
        out: set[str] = set()
        frontier = [type_id]
        while frontier:
            current = frontier.pop()
            for child in children.get(current, ()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        return out

    def ancestor_types(self, type_id: str) -> list[str]:
        """Chain from ``type_id``'s parent to the hierarchy root."""
        out: list[str] = []
        current = self.type(type_id).parent_id
        seen = {type_id}
        while current is not None:
            if current in seen:
                raise ValueError(f"type hierarchy cycle at {current!r}")
            seen.add(current)
            out.append(current)
            current = self.type(current).parent_id
        return out

    def facts_about(self, entity_id: str) -> list[Fact]:
        """Facts where ``entity_id`` is the subject."""
        return list(self._facts_by_subject.get(entity_id, ()))

    def facts_mentioning(self, entity_id: str) -> list[Fact]:
        """Facts where ``entity_id`` is the object."""
        return list(self._facts_by_object.get(entity_id, ()))

    def neighbors(self, entity_id: str) -> set[str]:
        """Entity ids one hop away (either direction)."""
        out: set[str] = set()
        for fact in self._facts_by_subject.get(entity_id, ()):
            if fact.object_id is not None:
                out.add(fact.object_id)
        for fact in self._facts_by_object.get(entity_id, ()):
            out.add(fact.subject_id)
        out.discard(entity_id)
        return out

    def related(self, a: str, b: str) -> bool:
        """True when some fact directly connects entities ``a`` and ``b``."""
        return b in self.neighbors(a)

    # -- statistics & export -------------------------------------------------------------

    def alias_counts(self) -> dict[str, int]:
        """Number of aliases per entity id."""
        return {e.entity_id: len(e.aliases) for e in self._entities.values()}

    def to_networkx(self) -> nx.MultiDiGraph:
        """Entity-to-entity multigraph (literals omitted) for graph analytics."""
        graph = nx.MultiDiGraph()
        for entity in self._entities.values():
            graph.add_node(entity.entity_id, label=entity.label)
        for fact in self._facts:
            if fact.object_id is not None:
                graph.add_edge(
                    fact.subject_id, fact.object_id, property=fact.property_id
                )
        return graph

    def summary(self) -> dict[str, int]:
        """Size counters: entities, types, properties, facts, mentions."""
        return {
            "entities": len(self._entities),
            "types": len(self._types),
            "properties": len(self._properties),
            "facts": len(self._facts),
            "mentions": len(self._mention_index),
        }

    @classmethod
    def build(
        cls,
        types: Iterable[EntityType] = (),
        properties: Iterable[Property] = (),
        entities: Iterable[Entity] = (),
        facts: Iterable[Fact] = (),
    ) -> "KnowledgeGraph":
        """Construct and populate a graph in dependency order."""
        kg = cls()
        for t in types:
            kg.add_type(t)
        for p in properties:
            kg.add_property(p)
        for e in entities:
            kg.add_entity(e)
        for f in facts:
            kg.add_fact(f)
        return kg
