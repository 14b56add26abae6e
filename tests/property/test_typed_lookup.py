"""Typed lookups equal a brute-force reference on every served index.

A ``type_filter`` lookup takes the path an untyped one takes: one full
scan, over-fetched by the snapshot's *impure row count* (rows whose
entity the filter does not admit), then filtered at rank time.  The
reference here scores every live row with the index's own exact kernel
(``pair_distances``: bit for bit what its search reports), keeps the best
row per admissible entity and ranks the entities by ``(distance, row)`` —
ties go to the lower row id — cutting at ``k``.

The engines hold alias rows (several rows per entity), rows tombstoned by
a remove, and the KG has types narrow enough that their impure count
exceeds the ``3k`` alias over-fetch: without the impure term the scan
would hand the rank stage too few admissible rows.  The router has empty
string tiers, so every query is served by the scan.
"""

import os
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.pq import PQIndex
from repro.index.sharded import ShardedIndex
from repro.lookup import normalize
from repro.lookup.base import Candidate
from repro.lookup.router import LabelHashTable, LookupRouter, TypeFilterMap
from repro.serving import IndexMutation, LookupEngine
from repro.testing import run_cases

#: Entities removed before any lookup: their rows stay as tombstones.
REMOVED = 12
#: Largest ``k`` a case asks for.
MAX_K = 7


def process_workers() -> int | None:
    """The pool width CI's multiprocessing matrix asks for (default: one
    worker per shard)."""
    return int(os.environ.get("REPRO_TEST_NUM_WORKERS", "0")) or None


def trained_pq(dim: int, vectors: np.ndarray) -> PQIndex:
    index = PQIndex(dim, m=8, nbits=4, seed=3)
    index.train(vectors)
    return index


INDEXES = {
    "flat": lambda dim, vectors: FlatIndex(dim),
    "pq": trained_pq,
    "sharded_inline": lambda dim, vectors: ShardedIndex(dim, 3),
    "sharded_process": lambda dim, vectors: ShardedIndex(
        dim, 4, executor="process", num_workers=process_workers()
    ),
}


@dataclass(frozen=True)
class TypedCase:
    """One batch of typed lookups: queries, ``k`` and the filter."""

    queries: tuple[str, ...]
    k: int
    type_id: str


class TypedCaseStrategy:
    """Typo'd mentions of any entity, asked under any KG type; shrinks by
    dropping queries."""

    def __init__(self, mentions: list[str], type_ids: list[str]):
        self.mentions = mentions
        self.type_ids = type_ids

    def generate(self, rng: np.random.Generator) -> TypedCase:
        picked = rng.choice(len(self.mentions), size=int(rng.integers(1, 9)))
        queries = []
        for i in picked:
            mention = self.mentions[int(i)]
            cut = int(rng.integers(0, len(mention)))
            queries.append(mention[:cut] + "x" + mention[cut + 1 :])
        return TypedCase(
            tuple(queries),
            int(rng.integers(1, MAX_K + 1)),
            self.type_ids[int(rng.integers(0, len(self.type_ids)))],
        )

    def shrink(self, case: TypedCase):
        for i in range(len(case.queries) if len(case.queries) > 1 else 0):
            yield replace(
                case, queries=case.queries[:i] + case.queries[i + 1 :]
            )


def reference(
    index, vectors, owners, live: np.ndarray, allowed, k: int
) -> list[list[Candidate]]:
    """Best row per admissible entity, top ``k`` by ``(distance, row)``."""
    distances = index.pair_distances(vectors, live)
    out = []
    for row_distances in distances:
        best: dict[str, tuple[float, int]] = {}
        for distance, row in zip(row_distances.tolist(), live.tolist()):
            entity_id = owners[row]
            if entity_id in allowed and (
                entity_id not in best or (distance, row) < best[entity_id]
            ):
                best[entity_id] = (distance, row)
        ranked = sorted(best.items(), key=lambda item: item[1])[:k]
        out.append([Candidate(e, -distance) for e, (distance, _) in ranked])
    return out


@pytest.mark.parametrize("kind", sorted(INDEXES))
def test_typed_lookup_equals_brute_force_reference(trained_service, kind):
    pipeline = trained_service
    kg = pipeline.kg
    mentions, owners = [], []
    for mention, entity_id in kg.mention_rows(True):
        mentions.append(mention)
        owners.append(entity_id)
    assert len(set(owners)) < len(owners)  # alias rows
    vectors = pipeline.embed_queries(mentions)
    index = INDEXES[kind](vectors.shape[1], vectors)
    index.add(vectors)
    type_map = TypeFilterMap.from_kg(kg)
    router = LookupRouter(LabelHashTable(), type_map=type_map)
    type_ids = [t.type_id for t in kg.types()]
    with LookupEngine(pipeline, index, owners, router=router) as engine:
        removed = np.random.default_rng(35).choice(
            sorted(set(owners)), size=REMOVED, replace=False
        )
        for step, entity_id in enumerate(removed.tolist()):
            engine.apply_mutation(IndexMutation(step, "remove", entity_id))
        live = np.flatnonzero(~np.isin(owners, removed)).astype(np.int64)
        narrow = [
            tid
            for tid in type_ids
            if type_map.allowed(tid)
            and sum(e not in type_map.allowed(tid) for e in owners) > 3 * MAX_K
        ]
        assert narrow  # a filter whose impure rows outnumber 3k

        def prop(case: TypedCase) -> None:
            got = engine.lookup_batch(
                list(case.queries), case.k, type_filter=case.type_id
            )
            embedded = pipeline.embed_normalized(
                [normalize(q) for q in case.queries]
            )
            want = reference(
                index,
                embedded,
                owners,
                live,
                type_map.allowed(case.type_id),
                case.k,
            )
            assert got == want, case

        run_cases(
            prop,
            TypedCaseStrategy(mentions, narrow + type_ids),
            cases=40,
            name=f"typed_lookup_{kind}",
        )
