"""The q-gram tier's array scorer equals its definition (ISSUE 17).

``QGramLookup`` answers from int32 posting arrays, a ``bincount`` and an
array top-k; the definition it must reproduce — entity ids, bit-equal
scores, order — is a brute force over the live rows of
``jaccard_qgram_similarity``, ranked ``(score desc, row asc)`` and
resolved to the first ``k`` distinct entities.  The table is driven by
seeded scripts of interleaved ``add`` / ``drop_entity`` (drops, and
re-adds of a dropped entity, leave dead rows in the postings).  The
array top-k itself is equated with the streaming ``BestRows`` ranker the
other string services keep.
"""

import numpy as np

from repro.lookup import normalize
from repro.lookup.base import Candidate
from repro.lookup.qgram import QGramLookup
from tests.support import LabelStrategy, case_rng, run_cases
from repro.text.distance import jaccard_qgram_similarity
from repro.utils.ranking import BestRows, best_rows, resolve_rows

CASES = 25
QS = (2, 3)


class TableScriptStrategy:
    """``("add", entity, mention)`` / ``("drop", entity, None)`` scripts
    over :class:`LabelStrategy` surface forms (a third of which normalize
    to the empty label, so ties are heavy)."""

    def __init__(self, max_entities: int = 10):
        self.max_entities = max_entities
        self.labels = LabelStrategy(max_len=12, num_aliases=2)

    def generate(self, rng):
        forms: dict[str, list[str]] = {}
        script = []
        for i in range(int(rng.integers(1, self.max_entities + 1))):
            label, aliases = self.labels.generate(rng)
            forms[f"e{i}"] = [label, *aliases]
            script += [("add", f"e{i}", form) for form in forms[f"e{i}"]]
            if rng.random() < 0.4:
                victim = f"e{int(rng.integers(0, i + 1))}"
                script.append(("drop", victim, None))
                if rng.random() < 0.5:  # an update: the entity comes back
                    script += [("add", victim, f) for f in forms[victim][:2]]
        return script

    def shrink(self, script):
        if len(script) > 1:
            yield script[: len(script) // 2]
            yield script[:-1]


def by_definition(service: QGramLookup, query: str, k: int) -> list[Candidate]:
    """Brute force over the live rows; a row sharing no gram is no candidate."""
    rows = service.rows
    scored = [
        (jaccard_qgram_similarity(normalize(query), label, service.q), row)
        for row, (label, owner) in enumerate(zip(rows.labels, rows.entity_ids))
        if owner is not None
    ]
    ranked = sorted(
        (pair for pair in scored if pair[0] > 0),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return resolve_rows(ranked, rows.entity_ids, k, Candidate)


def unshared_query(service: QGramLookup) -> str:
    """Four copies of a character no label holds: every gram is foreign."""
    used = set("".join(service.rows.labels))
    return next(c for c in "0123456789@_" if c not in used) * 4


def assert_equals_definition(service: QGramLookup) -> None:
    labels = service.rows.labels
    live = sum(owner is not None for owner in service.rows.entity_ids)
    foreign = unshared_query(service)
    queries = list(dict.fromkeys(
        [*labels, *(label[:3] for label in labels),
         *(label[:-1] + "x" for label in labels), "", foreign]
    ))
    for k in (1, 10, live + 5):
        answers = service.lookup_batch(queries, k)
        for query, answer in zip(queries, answers):
            assert answer == by_definition(service, query, k), (query, k)
    assert service.lookup(foreign, 10) == []


class TestScorerEqualsDefinition:
    def test_under_interleaved_add_and_drop(self):
        def prop(script):
            for q in QS:
                service = QGramLookup(q=q, include_aliases=True)
                for op, entity_id, mention in script:
                    if op == "add":
                        service.add(mention, entity_id)
                    else:
                        service.drop_entity(entity_id)
                        assert_equals_definition(service)
                assert_equals_definition(service)

        run_cases(prop, TableScriptStrategy(), cases=CASES)

    def test_identical_labels_answer_in_row_order(self):
        for q in QS:
            service = QGramLookup(q=q)
            for i in range(25):
                service.add("same label", f"e{i}")
            for query in ("same label", "same", "label x"):
                answer = service.lookup(query, 10)
                assert [c.entity_id for c in answer] == [f"e{i}" for i in range(10)]
                assert len({c.score for c in answer}) == 1
                assert answer == by_definition(service, query, 10)
            service.drop_entity("e3")
            assert [c.entity_id for c in service.lookup("same label", 4)] == [
                "e0", "e1", "e2", "e4",
            ]

    def test_build_equals_adding_the_same_rows_one_by_one(self, tiny_kg):
        for q in QS:
            built = QGramLookup.build(tiny_kg, include_aliases=True, q=q)
            grown = QGramLookup(q=q, include_aliases=True)
            for mention, entity_id in tiny_kg.mention_rows(True):
                grown.add(mention, entity_id)
            rows = len(built.rows)
            assert rows == len(grown.rows) > 256  # several column doublings
            assert built._postings.keys() == grown._postings.keys()
            for gram, posting in built._postings.items():
                assert posting.dtype == np.int32
                assert np.array_equal(posting, grown._postings[gram])
            for ours, theirs in zip(built._columns, grown._columns):
                assert np.array_equal(ours[:rows], theirs[:rows])
            labels = [e.label for e in tiny_kg.entities()][:40]
            queries = labels + [label[:3] for label in labels] + [""]
            assert built.lookup_batch(queries, 10) == grown.lookup_batch(queries, 10)
            assert built.lookup_batch(queries, 10) == [
                by_definition(built, query, 10) for query in queries
            ]


class TestArrayTopK:
    def test_best_rows_equals_the_streaming_ranker_under_heavy_ties(self):
        levels = np.array([0.0, 0.25, 0.5, 0.5, 1.0])
        for case in range(200):
            rng = case_rng(17, case)
            n = int(rng.integers(0, 40))
            rows = rng.permutation(3 * n + 1)[:n]
            scores = levels[rng.integers(0, len(levels), size=n)]
            for k in (1, 3, max(n, 1), n + 5):
                best = BestRows(k)
                for score, row in zip(scores.tolist(), rows.tolist()):
                    best.offer(score, row)
                for dtype in (np.int32, np.int64):
                    assert best_rows(scores, rows.astype(dtype), k) == best.ranked()
