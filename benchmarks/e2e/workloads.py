"""The four workloads: what each indexes, how its engine is built, its inputs.

A workload's *data* (the training KG, the indexed KG, the model) is fixed;
``--seed`` drives only the traffic: which entities are asked for, how the
strings are corrupted, the arrival gaps and the change feed.  The program
sees the generated strings and records, never the seed.

Run length is an operation count fixed by ``--seconds`` and the nominal
rates below, identical on every commit, so count metrics (recall, router
shares, applied mutations) repeat exactly for a seed.  The rates were
sized so that the measured phase lasts about ``--seconds`` on the host
the baseline was taken on (README, "Sizing").
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import EmbLookupConfig
from repro.core.pipeline import EmbLookup
from repro.index.pq import PQIndex
from repro.index.sharded import ShardedIndex
from repro.kg import KnowledgeGraph, SyntheticKGConfig, generate_kg
from repro.lookup.normalize import normalize
from repro.serving import IndexMutation, LookupEngine
from repro.text.noise import NoiseModel

K = 10

#: The model is deliberately small: every run pays for it three times
#: (``setup_s`` is a median of three complete set-ups) and the driver's
#: whole budget is about 37 s per run.  ``recall_at_10`` is therefore a
#: change detector, not a quality claim.
TRAIN_KG = SyntheticKGConfig(num_entities=200, seed=17)
TRAIN_CONFIG = EmbLookupConfig(
    epochs=2, triplets_per_entity=6, fasttext_epochs=2, batch_size=64,
    seed=2, compression="none",
)
INDEX_KG_SEED = 18

BULK_BATCH = 32
MUTATE_EVERY = 25
READBACK_AFTER = 5
#: Share of the indexed entities the change feed may update or remove; the
#: lookup stream never asks for them, so its truth stays valid under churn.
RESERVED_SHARE = 0.1

_SYLLABLES = (
    "ba", "cor", "dil", "en", "fa", "gor", "hin", "jo", "kal", "lum", "mer",
    "nov", "or", "pel", "quin", "ras", "sol", "tur", "ul", "ven", "wick",
    "yar", "zen",
)


@dataclass(frozen=True)
class Op:
    """One driver operation and what a correct answer to it looks like."""

    kind: str  # lookup | readback | mutate | compact
    queries: tuple[str, ...] = ()
    truth: tuple[str, ...] = ()  # per query: the entity it was made from
    qkinds: tuple[str, ...] = ()  # per query: exact | typo | prefix
    mutation: IndexMutation | None = None
    expect: tuple[str, str] | None = None  # readback: (rank1|absent, entity id)
    gap: float = 0.0  # open loop: seconds since the previous arrival


@dataclass
class Plan:
    """The generated inputs of one run."""

    ops: list[Op]
    #: Open loop only: ``(phase name, op index range)``.
    phases: list[tuple[str, range]] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over everything the program will be given."""
        rows = [
            [
                op.kind, op.queries, op.truth, op.qkinds, op.expect, op.gap,
                None if op.mutation is None else [
                    op.mutation.seq, op.mutation.kind, op.mutation.entity_id,
                    op.mutation.mentions,
                ],
            ]
            for op in self.ops
        ]
        blob = json.dumps([rows, [(n, r.start, r.stop) for n, r in self.phases]])
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entities: int
    loop: str  # closed | open
    plan: Callable[[KnowledgeGraph, int, float], Plan]
    #: ``build_index(pipeline, kg)`` returns what ``build_engine`` needs.
    build_index: Callable[[EmbLookup, KnowledgeGraph], object]
    build_engine: Callable[[EmbLookup, object], LookupEngine]
    #: Whether the engine scans one uncompressed FlatIndex (brute-force checkable).
    flat: bool = True
    workers: int = 0


def train_pipeline() -> EmbLookup:
    pipeline = EmbLookup(TRAIN_CONFIG)
    pipeline.fit(generate_kg(TRAIN_KG))
    return pipeline


def index_kg(workload: Workload) -> KnowledgeGraph:
    return generate_kg(
        SyntheticKGConfig(num_entities=workload.entities, seed=INDEX_KG_SEED)
    )


# -- engines ---------------------------------------------------------------------


def _flat_index(pipeline: EmbLookup, kg: KnowledgeGraph) -> None:
    pipeline.build_index(kg)


def _single_engine(pipeline: EmbLookup, _state) -> LookupEngine:
    return LookupEngine.from_pipeline(pipeline, cache_size=0, executor="inline")


def _routed_engine(pipeline: EmbLookup, _state) -> LookupEngine:
    # 3 200 arrivals ask for ~1 500 distinct strings: a working set 3x the cache.
    return LookupEngine.from_pipeline(
        pipeline, router=True, cache_size=512, max_batch_size=32,
        max_batch_age=0.005, executor="inline",
    )


def _pq(dim: int) -> PQIndex:
    return PQIndex(dim, m=8, nbits=8, seed=3)


def sharded_pq(pipeline: EmbLookup, kg: KnowledgeGraph, executor: str):
    """The 8-byte PQ index over two shards, on the named executor."""
    mentions, rows = pipeline.index_rows(kg)
    vectors = pipeline.embed_queries(mentions)
    index = ShardedIndex(
        pipeline.config.embedding_dim, 2, factory=_pq, executor=executor,
        num_workers=2,
    )
    try:
        index.train(vectors)
        index.add(vectors)
    except BaseException:
        index.close()
        raise
    return index, rows


def _bulk_index(pipeline: EmbLookup, kg: KnowledgeGraph):
    return sharded_pq(pipeline, kg, "process")


def _bulk_engine(pipeline: EmbLookup, state) -> LookupEngine:
    index, rows = state
    try:
        return LookupEngine(pipeline, index, rows)
    except BaseException:
        index.close()
        raise


# -- traffic ---------------------------------------------------------------------


class _Traffic:
    """Seeded query strings over the entities a workload may ask for."""

    def __init__(self, kg: KnowledgeGraph, seed: int, reserve: float = 0.0):
        self.kg = kg
        self.rng = np.random.default_rng(seed)
        self.noise = NoiseModel(max_edits=2, seed=seed + 1)
        entities = list(kg.entities())
        keep = len(entities) - int(len(entities) * reserve)
        self.reserved = entities[keep:]
        # A verbatim mention shared by more than K entities could push its
        # own entity out of an exact-tier answer; such mentions are skipped.
        self.pool = []
        self.mentions: dict[str, list[str]] = {}
        for entity in entities[:keep]:
            safe = [
                m for m in entity.mentions
                if normalize(m) and len(kg.exact_lookup(m)) <= K
            ]
            if safe:
                self.pool.append(entity)
                self.mentions[entity.entity_id] = safe
        # Which entities are popular is part of the fixed data, like the KG:
        # the seed draws from the distribution, it does not redraw it.
        order = np.random.default_rng(INDEX_KG_SEED).permutation(len(self.pool))
        weights = np.empty(len(self.pool))
        weights[order] = 1.0 / np.arange(1, len(self.pool) + 1)
        self.zipf = weights / weights.sum()

    def draw(self, count: int, zipf: bool) -> list:
        picks = self.rng.choice(
            len(self.pool), size=count, p=self.zipf if zipf else None
        )
        return [self.pool[int(i)] for i in picks]

    def query(self, entity, qkind: str) -> str:
        if qkind == "exact":
            safe = self.mentions[entity.entity_id]
            return safe[int(self.rng.integers(0, len(safe)))]
        if qkind == "typo":
            return self.noise.corrupt(entity.label)
        return entity.label[:3]

    def mixed(self, entities: list, shares: dict[str, float]) -> list[tuple[str, str]]:
        """``(query, kind)`` per entity, kinds in exactly ``shares``' proportions.

        The kinds are a shuffled fixed-proportion sequence, not a roll per
        query: the share of expensive queries is then the same for every
        seed and only their order and their strings vary.
        """
        counts = {k: round(len(entities) * share) for k, share in shares.items()}
        first = next(iter(shares))
        counts[first] += len(entities) - sum(counts.values())
        kinds = [kind for kind, n in counts.items() for _ in range(n)]
        order = self.rng.permutation(len(kinds))
        return [
            (self.query(entity, kinds[int(i)]), kinds[int(i)])
            for entity, i in zip(entities, order)
        ]


def _lookup(query: str, entity, qkind: str, gap: float = 0.0) -> Op:
    return Op("lookup", (query,), (entity.entity_id,), (qkind,), gap=gap)


def _plan_single(kg: KnowledgeGraph, seed: int, seconds: float) -> Plan:
    traffic = _Traffic(kg, seed)
    entities = traffic.draw(round(700 * seconds), zipf=False)
    return Plan([_lookup(traffic.query(e, "typo"), e, "typo") for e in entities])


def _plan_bulk(kg: KnowledgeGraph, seed: int, seconds: float) -> Plan:
    traffic = _Traffic(kg, seed)
    entities = traffic.draw(round(60 * seconds) * BULK_BATCH, zipf=False)
    cells = traffic.mixed(entities, {"exact": 0.6, "typo": 0.4})
    ops = []
    for start in range(0, len(cells), BULK_BATCH):
        batch = slice(start, start + BULK_BATCH)
        ops.append(Op(
            "lookup",
            tuple(q for q, _ in cells[batch]),
            tuple(e.entity_id for e in entities[batch]),
            tuple(kind for _, kind in cells[batch]),
        ))
    return Plan(ops)


#: BENCH_router's mix.
_ROUTER_MIX = {"exact": 0.5, "typo": 0.25, "prefix": 0.25}


def _plan_trace(kg: KnowledgeGraph, seed: int, seconds: float) -> Plan:
    traffic = _Traffic(kg, seed)
    ops: list[Op] = []
    phases = []
    for name, rate, share in (("r200", 200.0, 0.4), ("r400", 400.0, 0.6)):
        count = round(rate * seconds * share)
        entities = traffic.draw(count, zipf=True)
        gaps = traffic.rng.exponential(1.0 / rate, size=count)
        first = len(ops)
        cells = traffic.mixed(entities, _ROUTER_MIX)
        for entity, (query, qkind), gap in zip(entities, cells, gaps):
            ops.append(_lookup(query, entity, qkind, float(gap)))
        phases.append((name, range(first, len(ops))))
    return Plan(ops, phases)


def _fresh_label(traffic: _Traffic, used: set[str]) -> str:
    rng = traffic.rng
    while True:
        words = [
            "".join(
                _SYLLABLES[int(i)]
                for i in rng.integers(0, len(_SYLLABLES), size=3)
            )
            for _ in range(2)
        ]
        label = " ".join(words)
        if label not in used and not traffic.kg.exact_lookup(label):
            used.add(label)
            return label


def _plan_churn(kg: KnowledgeGraph, seed: int, seconds: float) -> Plan:
    """Lookups with a seeded 40/30/30 add/update/remove feed beside them."""
    traffic = _Traffic(kg, seed, reserve=RESERVED_SHARE)
    rng = traffic.rng
    lookups = round(1000 * seconds)
    entities = traffic.draw(lookups, zipf=True)
    cells = traffic.mixed(entities, _ROUTER_MIX)
    # Entities the feed may touch: id -> current label.
    base = {e.entity_id: e.label for e in traffic.reserved}
    added: dict[str, str] = {}
    used: set[str] = set()
    ops: list[Op] = []
    readback: Op | None = None
    readback_at = -1
    seq = 0
    compact_at = (2 * lookups) // 3
    for i, (entity, (query, qkind)) in enumerate(zip(entities, cells)):
        ops.append(_lookup(query, entity, qkind))
        if readback is not None and i == readback_at:
            ops.append(readback)
            readback = None
        if i == compact_at:
            ops.append(Op("compact"))
        if (i + 1) % MUTATE_EVERY or i + 1 == lookups:
            continue
        roll = rng.random()
        targets = added if (added and (not base or rng.random() < 0.5)) else base
        if roll < 0.4 or not targets:
            eid, label = f"churn-{seq}", _fresh_label(traffic, used)
            mutation = IndexMutation(seq, "add", eid, mentions=(label,))
            added[eid] = label
            expect = ("rank1", eid)
        else:
            ids = sorted(targets)
            eid = ids[int(rng.integers(0, len(ids)))]
            if roll < 0.7:
                label = _fresh_label(traffic, used)
                mutation = IndexMutation(seq, "update", eid, mentions=(label,))
                targets[eid] = label
                expect = ("rank1", eid)
            else:
                label = targets.pop(eid)
                mutation = IndexMutation(seq, "remove", eid)
                expect = ("absent", eid)
        ops.append(Op("mutate", mutation=mutation))
        readback = Op("readback", (label,), expect=expect)
        readback_at = i + READBACK_AFTER
        seq += 1
    if readback is not None:
        ops.append(readback)
    return Plan(ops)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "single_ann_small",
            "closed loop, 1 caller, one typo'd label per call, flat 1 000 rows, "
            "no cache or router: embed-dominated, the inference path shows here",
            1000, "closed", _plan_single, _flat_index, _single_engine,
        ),
        Workload(
            "bulk_pq_sharded",
            "closed loop, batches of 32 cells over the 8-byte PQ index, 2 shards "
            "on 2 worker processes, 6 000 rows: scan-, shm- and IPC-dominated",
            6000, "closed", _plan_bulk, _bulk_index, _bulk_engine,
            flat=False, workers=2,
        ),
        Workload(
            "trace_open",
            "open loop, Poisson 200/s then 400/s, Zipf entities, 50/25/25 "
            "exact/typo/prefix, router + cache 1/3 of the working set + "
            "micro-batching, flat 5 000 rows",
            5000, "open", _plan_trace, _flat_index, _routed_engine,
        ),
        Workload(
            "churn_closed",
            "closed loop, trace_open's engine and mix, a change-feed record "
            "every 25th lookup and one compaction: writes beside reads, the "
            "cache generation bumped by every write",
            5000, "closed", _plan_churn, _flat_index, _routed_engine,
        ),
    )
}
