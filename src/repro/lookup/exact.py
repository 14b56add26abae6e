"""Exact-match lookup: a hash index over normalised labels.

The fastest and most brittle baseline: any edit to the query misses.  By
default only entity labels are indexed (matching the paper's "only entity
mentions" local-index setting); ``include_aliases=True`` reproduces the
larger alias-aware index discussed in Section IV-D.  The hash itself is
the router's exact tier, :class:`~repro.lookup.router.LabelHashTable`.
"""

from __future__ import annotations

from repro.kg.graph import KnowledgeGraph
from repro.lookup.base import Candidate, LookupService
from repro.lookup.router import LabelHashTable

__all__ = ["ExactMatchLookup"]


class ExactMatchLookup(LookupService):
    name = "exact_match"

    def __init__(self, include_aliases: bool = False):
        super().__init__()
        self.include_aliases = include_aliases
        self.table = LabelHashTable(include_aliases)

    @classmethod
    def build(
        cls, kg: KnowledgeGraph, include_aliases: bool = False
    ) -> "ExactMatchLookup":
        service = cls(include_aliases)
        service.table = LabelHashTable.build(kg, include_aliases)
        return service

    def _lookup_batch(self, queries: list[str], k: int) -> list[list[Candidate]]:
        return [
            [Candidate(eid, 1.0) for eid in self.table.lookup(query)[:k]]
            for query in queries
        ]

    def index_bytes(self) -> int:
        return self.table.index_bytes()
