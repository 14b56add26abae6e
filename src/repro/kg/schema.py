"""KG schema: the quadruplet <E, T, P, F> of the paper's Section II."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Entity", "EntityType", "Fact", "Property"]


@dataclass(frozen=True)
class EntityType:
    """A type (class) such as ``country`` or ``person``.

    ``parent_id`` forms the type hierarchy used by Column Type Annotation
    (CTA picks the *most specific* common type).
    """

    type_id: str
    label: str
    parent_id: str | None = None


@dataclass(frozen=True)
class Property:
    """A relation such as ``capital_of`` or ``employer``."""

    property_id: str
    label: str


@dataclass(frozen=True)
class Entity:
    """A KG entity with its label and alias mentions.

    ``aliases`` corresponds to values of ``skos:altLabel`` /
    ``dbo:wikiPageWikiLinkText`` — the semantic-similarity training signal.
    """

    entity_id: str
    label: str
    aliases: tuple[str, ...] = ()
    type_ids: tuple[str, ...] = ()
    description: str = ""

    @property
    def mentions(self) -> tuple[str, ...]:
        """Label plus aliases — every known surface form."""
        return (self.label, *self.aliases)

    @property
    def primary_type(self) -> str | None:
        """First declared type id, or ``None`` for untyped entities.

        Type membership (``type_filter=``) consults the full ``type_ids``
        tuple, never this alone.
        """
        return self.type_ids[0] if self.type_ids else None

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise ValueError("entity_id must be non-empty")
        if not self.label:
            raise ValueError(f"entity {self.entity_id} has an empty label")


@dataclass(frozen=True)
class Fact:
    """A triple <subject, property, object>.

    ``object_id`` holds an entity id when the object is an entity;
    ``literal`` holds the value otherwise.  Exactly one of them is set.
    """

    subject_id: str
    property_id: str
    object_id: str | None = None
    literal: str | None = None

    def __post_init__(self) -> None:
        if (self.object_id is None) == (self.literal is None):
            raise ValueError(
                "exactly one of object_id / literal must be set "
                f"(fact on {self.subject_id} / {self.property_id})"
            )

    @property
    def is_entity_fact(self) -> bool:
        return self.object_id is not None
