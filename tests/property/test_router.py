"""Property tests for the tiered router (ISSUE 9 acceptance properties).

Two acceptance properties, each over seeded generated cases:

- **passthrough** — with no exact entries and no fuzzy tier, the router
  is a transparent wrapper: its answers equal the ANN service's answers
  verbatim;
- **exact supremacy** — a query whose normalized form is indexed gets
  *every* entity sharing that surface form, all at rank-1 score 1.0 —
  a superset of what a hash-embedding ANN tier would return at distance
  ~0 for the same string.

The ``type_filter`` exactness claim (a typed lookup equals the
brute-force reference over the admissible entities) is
``tests/property/test_typed_lookup.py``.

The ANN stub embeds queries by hashing the *normalized* string through
``zlib.crc32`` (stable across processes, unlike ``hash()``), so equal
surface forms land on identical vectors.
"""

import zlib

import numpy as np

from repro.index.flat import FlatIndex
from repro.lookup import LabelHashTable, LookupRouter, normalize
from repro.lookup.base import Candidate, LookupService
from repro.testing import LabelStrategy, run_cases

DIM = 12
CASES = 40


def hash_embed(queries: list[str]) -> np.ndarray:
    """Deterministic per-string embeddings, equal iff normalized-equal."""
    rows = []
    for query in queries:
        rng = np.random.default_rng(zlib.crc32(normalize(query).encode()))
        rows.append(rng.standard_normal(DIM))
    return np.asarray(rows, dtype=np.float32)


class HashAnnService(LookupService):
    """FlatIndex ANN over crc32-hash embeddings of surface forms."""

    name = "hash-ann"

    def __init__(self, entity_ids: list[str], forms: list[str]):
        super().__init__()
        self._ids = list(entity_ids)
        self._index = FlatIndex(DIM)
        self._index.add(hash_embed(forms))

    def _lookup_batch(self, queries, k):
        result = self._index.search(hash_embed(queries), k)
        return [
            [
                Candidate(self._ids[int(i)], -float(d))
                for i, d in zip(row_ids, row_d)
                if i >= 0
            ]
            for row_ids, row_d in zip(result.ids, result.distances)
        ]


def corpus_from(case: tuple[str, list[str]]) -> tuple[list[str], list[str]]:
    """One entity per surface form: ids e0.., forms label + aliases."""
    label, aliases = case
    forms = [label, *aliases]
    return [f"e{i}" for i in range(len(forms))], forms


class TestRouterPassthrough:
    def test_router_equals_pure_ann_when_no_tier_short_circuits(self):
        """Empty exact tier + no fuzzy tier == the bare ANN service."""

        def prop(case):
            ids, forms = corpus_from(case)
            ann = HashAnnService(ids, forms)
            router = LookupRouter(LabelHashTable(), ann=ann, fuzzy=None)
            queries = forms + [forms[0][::-1], "never indexed"]
            assert router.lookup_batch(queries, 3) == ann.lookup_batch(
                queries, 3
            )
            stats = router.router_stats()
            assert stats["exact_hits"] == 0 and stats["fuzzy_routed"] == 0
            assert stats["ann_routed"] == len(queries)

        run_cases(prop, LabelStrategy(num_aliases=3), cases=CASES)


class TestExactTier:
    def test_exact_hits_rank_every_sharer_at_score_one(self):
        """An indexed surface form answers with exactly the entities
        sharing its normalized form, all at score 1.0, never consulting
        the ANN tier — the deterministic statement of "rank-1 superset
        of the ANN answers" (hash embeddings give those same entities
        distance ~0)."""

        def prop(case):
            ids, forms = corpus_from(case)
            table = LabelHashTable()
            sharers: dict[str, list[str]] = {}
            for eid, form in zip(ids, forms):
                table.add(form, eid)
                key = normalize(form)
                if key and eid not in sharers.setdefault(key, []):
                    sharers[key].append(eid)
            ann = HashAnnService(ids, forms)
            router = LookupRouter(table, ann=ann, fuzzy=None)
            for form in forms:
                key = normalize(form)
                row = router.lookup(form, len(forms))
                if not key:
                    # Normalization emptied the query: exact tier cannot
                    # index it, the ANN tier answers instead.
                    assert row == ann.lookup(form, len(forms))
                    continue
                assert [c.entity_id for c in row] == sharers[key]
                assert all(c.score == 1.0 for c in row)

        run_cases(prop, LabelStrategy(num_aliases=3), cases=CASES)
