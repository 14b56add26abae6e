"""The label-row table and the string service built on it.

A string lookup service is *rows plus a scorer*: a :class:`LabelRows`
table of (normalized surface form, entity id), filled by the KG's one row
walk (:meth:`repro.kg.graph.KnowledgeGraph.mention_rows`), and a
``_score`` method that offers ``(score, row)`` pairs to the shared ranker
(:mod:`repro.utils.ranking`).  Building, online ``add`` /
``drop_entity``, best-k selection and row -> entity resolution are
written here once; a service adds only its scoring loop and whatever
per-row index that loop reads.  Every write costs what it touches: the
table finds an entity's rows through a reverse map, never by scanning.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.kg.graph import KnowledgeGraph
from repro.lookup.base import Candidate, LookupService
from repro.lookup.normalize import normalize
from repro.utils.ranking import BestRows, fetch_size, resolve_rows

__all__ = ["LabelRows", "RowTableLookup"]


class LabelRows:
    """Append-only rows of (normalized label, entity id).

    Rows are never renumbered: :meth:`add` appends, :meth:`drop_entity`
    blanks the entity id (``None``) and leaves the label in place.  Both
    run on the single mutation thread; a lock-free reader that walks
    ``labels`` finds the entity id of every row it sees, because the id
    is appended first.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        #: row -> entity id, ``None`` once the row's entity was dropped.
        self.entity_ids: list[str | None] = []
        #: live entity id -> its rows; only the mutation thread reads it.
        self._rows_of: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.labels)

    def add(self, mention: str, entity_id: str) -> int:
        """Append one surface form of ``entity_id``; returns its row."""
        row = len(self.labels)
        self._rows_of.setdefault(entity_id, []).append(row)
        self.entity_ids.append(entity_id)
        self.labels.append(normalize(mention))
        return row

    def drop_entity(self, entity_id: str) -> list[int]:
        """Blank every row of ``entity_id``; returns those rows (ascending,
        empty for an unknown entity).  O(rows of the entity)."""
        rows = self._rows_of.pop(entity_id, [])
        for row in rows:
            self.entity_ids[row] = None
        return rows

    def nbytes(self) -> int:
        """Approximate storage of the label strings plus per-row overhead."""
        return sum(len(label.encode()) + 16 for label in self.labels)


class RowTableLookup(LookupService):
    """A :class:`LabelRows` table ranked by the subclass's ``_score``.

    Subclasses implement :meth:`_score`, and :meth:`_index_row` /
    :meth:`_unindex_rows` when the scorer reads a per-row index of its
    own (posting lists, LSH buckets).  A scorer must not offer a row
    whose entity id is ``None``: it would take a live row's place among
    the best ``k`` before resolution discards it.  A scorer that has all
    its ``(score, row)`` pairs at once overrides :meth:`_ranker` instead
    of :meth:`_score`, and one that indexes a run of rows cheaper than
    row by row overrides :meth:`_index_rows` instead of
    :meth:`_index_row`.
    """

    def __init__(self, include_aliases: bool = False):
        super().__init__()
        self.include_aliases = include_aliases
        self.rows = LabelRows()

    @classmethod
    def build(
        cls, kg: KnowledgeGraph, include_aliases: bool = False, **options
    ) -> "RowTableLookup":
        """Index ``kg``'s rows; ``options`` are the constructor's own
        keywords (an unknown one raises ``TypeError`` there)."""
        service = cls(include_aliases=include_aliases, **options)
        for mention, entity_id in kg.mention_rows(include_aliases):
            service.rows.add(mention, entity_id)
        service._index_rows(0, len(service.rows))
        return service

    def add(self, mention: str, entity_id: str) -> None:
        """Index one surface form of ``entity_id`` as the next row."""
        row = self.rows.add(mention, entity_id)
        # The scorer's index last: a reader that finds the row there can
        # already resolve it through the table.
        self._index_rows(row, row + 1)

    def drop_entity(self, entity_id: str) -> int:
        """Retire every row of ``entity_id``; returns how many there were."""
        rows = self.rows.drop_entity(entity_id)
        if rows:
            self._unindex_rows(rows)
        return len(rows)

    def _lookup_batch(self, queries: list[str], k: int) -> list[list[Candidate]]:
        """The first ``k`` distinct live entities of each query's ranked
        rows.  Alias rows crowd one entity into several of the best rows,
        so the ranking starts at :func:`fetch_size` rows and doubles while
        the answer is short of ``k`` and the scorer had more rows to give."""
        entity_of = self.rows.entity_ids
        first = fetch_size(k, self.include_aliases, len(entity_of))
        out: list[list[Candidate]] = []
        for query in queries:
            ranker = self._ranker(normalize(query))
            fetch = first
            while True:
                ranked = ranker(fetch)
                answer = resolve_rows(ranked, entity_of, k, Candidate)
                if len(answer) == k or len(ranked) < fetch:
                    break
                fetch *= 2
            out.append(answer)
        return out

    def index_bytes(self) -> int:
        """The table's storage; override when the scorer's index dominates."""
        return self.rows.nbytes()

    # -- subclass hooks ----------------------------------------------------------

    def _ranker(self, query: str) -> Callable[[int], list[tuple[float, int]]]:
        """``fetch -> the best fetch (score, row) pairs of query``, best
        first.  The default scores ``query`` anew per call."""

        def ranked(fetch: int) -> list[tuple[float, int]]:
            best = BestRows(fetch)
            self._score(query, best)
            return best.ranked()

        return ranked

    def _score(self, query: str, best: BestRows) -> None:
        """Offer ``(score, row)`` for every candidate row of ``query``."""
        raise NotImplementedError

    def _index_rows(self, start: int, stop: int) -> None:
        """Add the just-appended rows ``[start, stop)`` to the scorer's own
        index: the whole table after :meth:`build`, one row per
        :meth:`add`."""
        for row in range(start, stop):
            self._index_row(row, self.rows.labels[row])

    def _index_row(self, row: int, label: str) -> None:
        """Add the just-appended ``row`` to the scorer's own index."""

    def _unindex_rows(self, rows: list[int]) -> None:
        """Take just-dropped ``rows`` out of the scorer's own index."""
