"""A row-table service answers ``k`` distinct entities whenever it has them.

Every string service ranks *rows*, and with alias rows indexed one
entity's rows can crowd the best ``k`` (a q-gram table over 5 000
entities holds 21 896 rows).  The answer is defined per entity: the best
row of each live entity under ``(score desc, row asc)``, those entities
in that order, the first ``k``.  Here it is equated with a brute force —
an independent scorer for the q-gram and Levenshtein tables, the
scorer's own full ranking for the other three — on all five services,
after drops, and on a table where one entity holds more rows than the
first fetch.
"""

import pytest

from repro.lookup import normalize
from repro.lookup.base import Candidate
from repro.lookup.elastic import ElasticLookup
from repro.lookup.fuzzy import FuzzyWuzzyLookup
from repro.lookup.levenshtein import LevenshteinLookup
from repro.lookup.lsh_lookup import LSHStringLookup
from repro.lookup.qgram import QGramLookup
from repro.text.distance import jaccard_qgram_similarity, levenshtein
from tests.support import run_cases

SERVICES = [
    QGramLookup,
    LevenshteinLookup,
    FuzzyWuzzyLookup,
    ElasticLookup,
    LSHStringLookup,
]
KS = (1, 3, 10, 25)


def scored_rows(service, query: str) -> list[tuple[float, int]]:
    """``(score, row)`` of every row the service's scorer would offer."""
    rows = service.rows
    live = [
        (label, row)
        for row, (label, owner) in enumerate(zip(rows.labels, rows.entity_ids))
        if owner is not None
    ]
    if isinstance(service, QGramLookup):
        pairs = [
            (jaccard_qgram_similarity(query, label, service.q), row)
            for label, row in live
        ]
        return [pair for pair in pairs if pair[0] > 0]
    if isinstance(service, LevenshteinLookup):
        return [(float(-levenshtein(query, label)), row) for label, row in live]
    return service._ranker(query)(len(rows) + 1)


def best_row_per_entity(service, query: str, k: int) -> list[Candidate]:
    """The brute-force answer: each entity's best row, ranked, first k."""
    entity_of = service.rows.entity_ids
    best: dict[str, tuple[float, int]] = {}
    for score, row in scored_rows(service, normalize(query)):
        owner = entity_of[row]
        key = (-score, row)
        if owner is not None and (owner not in best or key < best[owner]):
            best[owner] = key
    ranked = sorted((key, owner) for owner, key in best.items())[:k]
    return [Candidate(owner, -neg) for (neg, _), owner in ranked]


class DropAndQueryStrategy:
    """Entities to drop and queries to ask of a KG's alias-row table:
    labels, aliases, 3-character prefixes and one-character typos."""

    def __init__(self, kg, max_drops: int = 8, queries: int = 10):
        self.entities = list(kg.entities())
        self.max_drops = max_drops
        self.queries = queries

    def generate(self, rng):
        drops = [
            self.entities[int(i)].entity_id
            for i in rng.choice(
                len(self.entities),
                int(rng.integers(0, self.max_drops + 1)),
                replace=False,
            )
        ]
        queries = []
        for i in rng.choice(len(self.entities), self.queries, replace=False):
            mention = str(rng.choice(self.entities[int(i)].mentions))
            kind = int(rng.integers(0, 3))
            if kind == 1:
                mention = mention[:3]
            elif kind == 2 and len(mention) > 1:
                cut = int(rng.integers(0, len(mention)))
                mention = mention[:cut] + "x" + mention[cut + 1 :]
            queries.append(mention)
        return drops, queries

    def shrink(self, case):
        drops, queries = case
        if len(queries) > 1:
            yield drops, queries[: len(queries) // 2]
            yield drops, queries[1:]
        if drops:
            yield drops[:-1], queries


@pytest.mark.parametrize("cls", SERVICES, ids=lambda cls: cls.name)
def test_answer_is_the_best_row_per_entity(cls, tiny_kg):
    def prop(case):
        drops, queries = case
        service = cls.build(tiny_kg, include_aliases=True)
        for entity_id in drops:
            service.drop_entity(entity_id)
        for k in KS:
            answers = service.lookup_batch(queries, k)
            for query, answer in zip(queries, answers):
                assert answer == best_row_per_entity(service, query, k), (
                    query,
                    k,
                )

    run_cases(
        prop,
        DropAndQueryStrategy(tiny_kg),
        cases=4,
        name=f"fuzzy_k_{cls.name}",
    )


@pytest.mark.parametrize("cls", SERVICES, ids=lambda cls: cls.name)
def test_one_entity_crowding_the_first_fetch_still_yields_k(cls):
    """``crowd`` holds 70 rows that all outscore everyone else's — more
    than the first fetch of 3k = 30 rows, and than one widening — so only
    a ranking that keeps widening reaches the other ten entities (those
    the scorer offers at all: LSH offers only rows in the query's
    buckets)."""
    service = cls(include_aliases=True)
    for i in range(70):
        service.add(f"alphabet {i:02d}", "crowd")
    for i in range(10):
        service.add(f"alphabet soup number {i:02d}", f"other{i}")
    answer = service.lookup("alphabet 00", 10)
    assert answer[0].entity_id == "crowd"
    assert answer == best_row_per_entity(service, "alphabet 00", 10)
    if cls is not LSHStringLookup:
        assert len(answer) == 10
    # Fewer live entities than k: every one offered, no padding.
    service.drop_entity("other3")
    answer = service.lookup("alphabet 00", 25)
    assert answer == best_row_per_entity(service, "alphabet 00", 25)
    if cls is not LSHStringLookup:
        assert len(answer) == 10
