"""q-gram lookup: inverted index over character trigrams.

Candidates are gathered from the posting lists of the query's q-grams and
ranked by Jaccard similarity of gram sets — the classical signature-based
approximate string matcher.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.kg.graph import KnowledgeGraph
from repro.lookup.base import Candidate, LookupService
from repro.text.distance import qgrams
from repro.text.tokenize import normalize

__all__ = ["QGramLookup"]


class QGramLookup(LookupService):
    name = "qgram"

    def __init__(self, q: int = 3, include_aliases: bool = False):
        super().__init__()
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        self.include_aliases = include_aliases
        self._postings: dict[str, list[int]] = defaultdict(list)
        self._gram_sets: list[frozenset[str]] = []
        self._entity_ids: list[str] = []

    @classmethod
    def build(
        cls,
        kg: KnowledgeGraph,
        q: int = 3,
        include_aliases: bool = False,
        **kwargs,
    ) -> "QGramLookup":
        service = cls(q=q, include_aliases=include_aliases)
        for entity in kg.entities():
            mentions = entity.mentions if include_aliases else (entity.label,)
            for mention in mentions:
                label = normalize(mention)
                row = len(service._gram_sets)
                grams = frozenset(qgrams(label, service.q))
                service._gram_sets.append(grams)
                service._entity_ids.append(entity.entity_id)
                for gram in grams:
                    service._postings[gram].append(row)
        return service

    def _lookup_batch(self, queries: list[str], k: int) -> list[list[Candidate]]:
        return [self._single(normalize(q), k) for q in queries]

    def _single(self, query: str, k: int) -> list[Candidate]:
        query_grams = set(qgrams(query, self.q))
        if not query_grams:
            return []
        overlap: dict[int, int] = defaultdict(int)
        for gram in query_grams:
            for row in self._postings.get(gram, ()):
                overlap[row] += 1
        # Heap entries are (score, -row): the root is the current worst
        # under the final (score desc, row asc) order, so which rows
        # survive a tie at the k-th score does not depend on the order
        # ``overlap`` was filled in (set iteration, i.e. str hashing).
        heap: list[tuple[float, int]] = []
        for row, shared in overlap.items():
            union = len(query_grams) + len(self._gram_sets[row]) - shared
            score = shared / union if union else 1.0
            if len(heap) < k:
                heapq.heappush(heap, (score, -row))
            elif score >= heap[0][0] and (
                score > heap[0][0] or row < -heap[0][1]
            ):
                heapq.heapreplace(heap, (score, -row))
        out: list[Candidate] = []
        seen: set[str] = set()
        for score, neg_row in sorted(heap, reverse=True):
            row = -neg_row
            entity_id = self._entity_ids[row]
            if entity_id in seen:
                continue
            seen.add(entity_id)
            out.append(Candidate(entity_id, float(score)))
        return out

    def index_bytes(self) -> int:
        return sum(
            len(gram.encode()) + 8 * len(rows)
            for gram, rows in self._postings.items()
        )
