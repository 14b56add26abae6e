"""Levenshtein scan lookup: exact edit-distance ranking over all labels.

The "optimized Levenshtein module" baseline: a full scan with length-bound
pruning and an early-exit distance cut-off, returning the ``k`` labels with
the smallest edit distance.
"""

from __future__ import annotations

import heapq

from repro.kg.graph import KnowledgeGraph
from repro.lookup.base import Candidate, LookupService
from repro.text.distance import levenshtein
from repro.text.tokenize import normalize

__all__ = ["LevenshteinLookup"]


class LevenshteinLookup(LookupService):
    """Full edit-distance scan, one row per indexed surface form.

    Rows are append-only and never renumbered: :meth:`add` appends,
    :meth:`drop_entity` blanks a row's entity id and the scan skips
    blanked rows (single mutation thread, lock-free readers).
    """

    name = "levenshtein"

    def __init__(self, include_aliases: bool = False):
        super().__init__()
        self.include_aliases = include_aliases
        self._labels: list[str] = []
        #: row -> entity id, ``None`` once the row's entity was dropped.
        self._entity_ids: list[str | None] = []

    @classmethod
    def build(
        cls, kg: KnowledgeGraph, include_aliases: bool = False, **kwargs
    ) -> "LevenshteinLookup":
        service = cls(include_aliases=include_aliases)
        for entity in kg.entities():
            mentions = entity.mentions if include_aliases else (entity.label,)
            for mention in mentions:
                service.add(mention, entity.entity_id)
        return service

    def add(self, mention: str, entity_id: str) -> None:
        """Index one surface form of ``entity_id`` as the next row."""
        # The scan walks ``_labels``: the id must be there first.
        self._entity_ids.append(entity_id)
        self._labels.append(normalize(mention))

    def drop_entity(self, entity_id: str) -> int:
        """Retire every row of ``entity_id``; returns how many there were."""
        dropped = 0
        for row, owner in enumerate(self._entity_ids):
            if owner == entity_id:
                self._entity_ids[row] = None
                dropped += 1
        return dropped

    def _lookup_batch(self, queries: list[str], k: int) -> list[list[Candidate]]:
        return [self._single(normalize(q), k) for q in queries]

    def _single(self, query: str, k: int) -> list[Candidate]:
        # Max-heap of size k on distance (store negated distance).
        heap: list[tuple[float, int]] = []
        worst = None
        for row, (label, owner) in enumerate(
            zip(self._labels, self._entity_ids)
        ):
            if owner is None:
                continue
            bound = worst if worst is not None else None
            d = levenshtein(query, label, max_distance=bound)
            if len(heap) < k:
                heapq.heappush(heap, (-d, row))
                if len(heap) == k:
                    worst = int(-heap[0][0])
            elif d < -heap[0][0]:
                heapq.heapreplace(heap, (-d, row))
                worst = int(-heap[0][0])
        ranked = sorted(heap, key=lambda item: (-item[0], item[1]))
        out: list[Candidate] = []
        seen: set[str] = set()
        for neg_d, row in ranked:
            entity_id = self._entity_ids[row]
            # ``None``: dropped between the scan above and this read.
            if entity_id is None or entity_id in seen:
                continue
            seen.add(entity_id)
            out.append(Candidate(entity_id, -float(-neg_d)))
        return out

    def index_bytes(self) -> int:
        return sum(len(label.encode()) + 16 for label in self._labels)
