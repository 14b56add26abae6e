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
    """Inverted q-gram index, one row per indexed surface form.

    Rows are append-only and never renumbered: :meth:`add` appends,
    :meth:`drop_entity` takes a row out of the posting lists and blanks
    its entity id.  Both run on the single mutation thread; lock-free
    readers see a row only once its gram set and entity id are in place,
    and a posting list is replaced, never edited, when it loses a row.
    """

    name = "qgram"

    def __init__(self, q: int = 3, include_aliases: bool = False):
        super().__init__()
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        self.include_aliases = include_aliases
        self._postings: dict[str, list[int]] = defaultdict(list)
        self._gram_sets: list[frozenset[str]] = []
        #: row -> entity id, ``None`` once the row's entity was dropped.
        self._entity_ids: list[str | None] = []

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
                service.add(mention, entity.entity_id)
        return service

    def add(self, mention: str, entity_id: str) -> None:
        """Index one surface form of ``entity_id`` as the next row."""
        grams = frozenset(qgrams(normalize(mention), self.q))
        row = len(self._gram_sets)
        self._gram_sets.append(grams)
        self._entity_ids.append(entity_id)
        # Postings last: a reader that finds the row can resolve it.
        for gram in grams:
            self._postings[gram].append(row)

    def drop_entity(self, entity_id: str) -> int:
        """Retire every row of ``entity_id``; returns how many there were.

        O(rows) scan on the mutation path, like
        :meth:`repro.lookup.router.LabelHashTable.drop_entity`.
        """
        rows = {
            row
            for row, owner in enumerate(self._entity_ids)
            if owner == entity_id
        }
        for row in rows:
            self._entity_ids[row] = None
        for gram in set().union(*(self._gram_sets[row] for row in rows)):
            remaining = [r for r in self._postings[gram] if r not in rows]
            if remaining:
                self._postings[gram] = remaining
            else:
                del self._postings[gram]
        return len(rows)

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
            # ``None``: dropped after the posting lists were read.
            if entity_id is None or entity_id in seen:
                continue
            seen.add(entity_id)
            out.append(Candidate(entity_id, float(score)))
        return out

    def index_bytes(self) -> int:
        return sum(
            len(gram.encode()) + 8 * len(rows)
            for gram, rows in self._postings.items()
        )
