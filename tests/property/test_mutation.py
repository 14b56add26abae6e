"""Mutation properties: seeded op interleavings, old-or-new, crash safety.

Three tiers of guarantees for the online-mutation path:

- **replay equivalence** (sequential) — an index mutated incrementally
  through any seeded add/remove/update/compact sequence serves results
  bit-identical to a *twin* built in one shot from the equivalent bulk
  state (same append order, same tombstones).  Runs over the flat family
  and sharded indexes under the inline and process executors, and over a
  routed :class:`LookupEngine` whose exact and fuzzy tiers must follow
  entity-level mutations too.
- **old-or-new** (concurrent) — a lookup racing a mutation returns a
  result bit-identical to the pre-mutation oracle or the post-mutation
  oracle, never a mixture (torn read).  The mutator and the searchers
  start behind one barrier to maximise overlap.
- **crash safety** — a compaction killed at its swap point (the
  ``compact`` fault kind) leaves the old shard set serving bit-identical
  results, aborts all-or-nothing, and leaks no shared-memory segment; a
  mutation that lands mid-compaction aborts the swap the same way.

Failures replay with ``REPRO_SEED=<seed> REPRO_CASE=<index>`` (printed in
the failure message) and shrink to a minimal op sequence.
"""

import threading
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.sharded import ShardedIndex
from repro.index.shm import owned_segment_names
from repro.lookup.levenshtein import LevenshteinLookup
from repro.lookup.qgram import QGramLookup
from repro.lookup.router import TAU, LabelHashTable, LookupRouter
from repro.serving import IndexMutation, LookupEngine
from repro.testing import (
    FaultInjected,
    FaultPlan,
    assert_topk_equal,
    case_rng,
    run_cases,
)

DIM = 8
K = 5
NUM_SHARDS = 2


# -- case model -------------------------------------------------------------------


@dataclass(frozen=True)
class MutationCase:
    """A seeded mutation workload: initial rows plus an op sequence.

    Each op is ``(kind, op_seed, count)`` — the op's *content* (which
    rows to remove, what vectors to add) is derived from ``op_seed`` at
    execution time against the live set, so dropping ops during shrink
    never invalidates the survivors.
    """

    seed: int
    n_initial: int
    ops: tuple[tuple, ...]
    k: int = K

    def __repr__(self) -> str:
        kinds = ",".join(op[0] for op in self.ops)
        return (
            f"MutationCase(seed={self.seed}, n_initial={self.n_initial}, "
            f"k={self.k}, ops=[{kinds}])"
        )


class MutationStrategy:
    """Generates :class:`MutationCase`; shrinks by dropping ops, then rows."""

    OPS = ("add", "remove", "update", "compact")

    def generate(self, rng: np.random.Generator) -> MutationCase:
        n_initial = int(rng.integers(8, 48))
        n_ops = int(rng.integers(2, 9))
        ops = []
        for _ in range(n_ops):
            kind = self.OPS[int(rng.integers(0, len(self.OPS)))]
            ops.append((kind, int(rng.integers(0, 2**31)), int(rng.integers(1, 7))))
        return MutationCase(
            seed=int(rng.integers(0, 2**31)),
            n_initial=n_initial,
            ops=tuple(ops),
            k=int(rng.integers(1, K + 3)),
        )

    def shrink(self, case: MutationCase):
        for i in range(len(case.ops)):
            yield replace(case, ops=case.ops[:i] + case.ops[i + 1 :])
        if case.n_initial > 8:
            yield replace(case, n_initial=max(8, case.n_initial // 2))


class BulkModel:
    """Replayable bulk state: every row ever appended plus the dead set."""

    def __init__(self, initial: np.ndarray):
        self.rows = [initial]
        self.total = len(initial)
        self.dead: set[int] = set()

    def live_ids(self) -> list[int]:
        return [i for i in range(self.total) if i not in self.dead]

    def append(self, vectors: np.ndarray) -> None:
        self.rows.append(vectors)
        self.total += len(vectors)

    def matrix(self) -> np.ndarray:
        return np.concatenate(self.rows, axis=0)

    def compacted(self) -> None:
        """Mirror a compaction: live rows (old order) become the new state."""
        live = self.matrix()[self.live_ids()]
        self.rows = [live]
        self.total = len(live)
        self.dead = set()

    def twin(self, build) -> object:
        """A one-shot index over the current bulk state (same layout)."""
        index = build()
        matrix = self.matrix()
        index.train(matrix)
        index.add(matrix)
        if self.dead:
            index.remove(np.asarray(sorted(self.dead), dtype=np.int64))
        return index


def apply_op(index, model: BulkModel, op) -> None:
    """Apply one seeded op to both the live index and the bulk model."""
    kind, op_seed, count = op
    rng = case_rng(op_seed, 0)
    if kind == "add":
        vectors = rng.standard_normal((count, DIM)).astype(np.float32)
        index.add(vectors)
        model.append(vectors)
        return
    if kind == "compact":
        remap = index.compact()
        if model.dead:
            assert remap is not None
            live = model.live_ids()
            assert (
                remap[np.asarray(sorted(model.dead), dtype=np.int64)] == -1
            ).all()
            assert sorted(int(remap[i]) for i in live) == list(range(len(live)))
            model.compacted()
        else:
            assert remap is None  # nothing to reclaim: no swap, no remap
        return
    live = model.live_ids()
    if not live:
        return
    take = min(count, len(live))
    picked = sorted(
        int(i) for i in rng.choice(np.asarray(live), size=take, replace=False)
    )
    if kind == "remove":
        index.remove(np.asarray(picked, dtype=np.int64))
        model.dead.update(picked)
        return
    vectors = rng.standard_normal((take, DIM)).astype(np.float32)
    new_ids = index.update(np.asarray(picked, dtype=np.int64), vectors)
    assert len(new_ids) == take
    model.dead.update(picked)
    model.append(vectors)
    assert sorted(int(i) for i in new_ids) == list(
        range(model.total - take, model.total)
    )


class EngineModel:
    """Bulk state of a routed engine: every index row ever appended, the
    tombstoned rows, and the live entities' surface forms in the order
    the router tiers learned them."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        mentions, owners = pipeline.index_rows()
        self.blocks = [pipeline.embed_queries(mentions)]
        self.owners = list(owners)
        self.dead: set[int] = set()
        self.surface = {
            e.entity_id: tuple(e.mentions) for e in pipeline.kg.entities()
        }

    def add(self, entity_id: str, mentions: tuple[str, ...]) -> None:
        self.blocks.append(self.pipeline.embed_queries(mentions))
        self.owners.extend([entity_id] * len(mentions))
        self.surface[entity_id] = mentions

    def remove(self, entity_id: str) -> None:
        del self.surface[entity_id]
        self.dead.update(
            row
            for row, owner in enumerate(self.owners)
            if owner == entity_id and row not in self.dead
        )

    def compacted(self) -> None:
        live = [r for r in range(len(self.owners)) if r not in self.dead]
        self.blocks = [np.concatenate(self.blocks, axis=0)[live]]
        self.owners = [self.owners[r] for r in live]
        self.dead = set()

    def twin(self, routed: bool = True, fuzzy=QGramLookup) -> LookupEngine:
        """An uncached engine (routed, unless told otherwise, with a
        ``fuzzy`` string tier) built in one shot over the current
        state."""
        matrix = np.concatenate(self.blocks, axis=0)
        index = FlatIndex(matrix.shape[1])
        index.add(matrix)
        if self.dead:
            index.remove(np.asarray(sorted(self.dead), dtype=np.int64))
        router = None
        if routed:
            router = LookupRouter(
                LabelHashTable(), fuzzy=fuzzy(include_aliases=True)
            )
            for entity_id, mentions in self.surface.items():
                router.add_entity(entity_id, mentions)
        return LookupEngine(
            self.pipeline, index, list(self.owners), router=router
        )


def fresh_mentions(rng: np.random.Generator, count: int) -> tuple[str, ...]:
    """``count`` new surface forms, alternating a 3-character one (the
    router's fuzzy tier) with a long one (the ANN tier)."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    return tuple(
        "".join(rng.choice(list(letters), size=3 if i % 2 == 0 else 9))
        for i in range(count)
    )


def apply_engine_op(engine, model: EngineModel, step: int, op) -> None:
    """Apply one seeded entity-level op to the engine and the model."""
    kind, op_seed, count = op
    rng = case_rng(op_seed, 0)
    if kind == "compact":
        assert engine.compact() == bool(model.dead)
        model.compacted()
        return
    if kind == "add":
        entity_id = f"N{step}"
    else:
        entity_id = str(rng.choice(sorted(model.surface)))
        model.remove(entity_id)
    if kind == "remove":
        engine.apply_mutation(IndexMutation(step, "remove", entity_id))
        return
    mentions = fresh_mentions(rng, min(count, 3))
    engine.apply_mutation(
        IndexMutation(step, kind, entity_id, mentions=mentions)
    )
    model.add(entity_id, mentions)


def queries_for(case: MutationCase) -> np.ndarray:
    return case_rng(case.seed, 1).standard_normal((4, DIM)).astype(np.float32)


# -- replay equivalence -----------------------------------------------------------


class TestReplayEquivalence:
    """Incremental mutation == one-shot bulk build, after every op."""

    def check(self, case: MutationCase, build_live, build_twin) -> None:
        queries = queries_for(case)
        initial = (
            case_rng(case.seed, 2)
            .standard_normal((case.n_initial, DIM))
            .astype(np.float32)
        )
        model = BulkModel(initial)
        index = build_live()
        try:
            index.train(initial)
            index.add(initial)
            for step, op in enumerate(case.ops):
                apply_op(index, model, op)
                twin = model.twin(build_twin)
                try:
                    assert_topk_equal(
                        index.search(queries, case.k),
                        twin.search(queries, case.k),
                        context=f"after op {step} ({op[0]})",
                    )
                finally:
                    close = getattr(twin, "close", None)
                    if close:
                        close()
        finally:
            close = getattr(index, "close", None)
            if close:
                close()

    def test_flat_replay_equivalence(self):
        def prop(case):
            self.check(
                case, lambda: FlatIndex(DIM), lambda: FlatIndex(DIM)
            )

        run_cases(prop, MutationStrategy(), cases=40, name="flat_replay")

    @pytest.mark.parametrize("executor", ["inline"])
    def test_sharded_replay_equivalence(self, executor):
        def prop(case):
            self.check(
                case,
                lambda: ShardedIndex(
                    DIM,
                    NUM_SHARDS,
                    factory=lambda d: FlatIndex(d),
                    executor=executor,
                ),
                lambda: ShardedIndex(
                    DIM,
                    NUM_SHARDS,
                    factory=lambda d: FlatIndex(d),
                    executor="inline",
                ),
            )

        run_cases(
            prop,
            MutationStrategy(),
            cases=15,
            name=f"sharded_{executor}_replay",
        )

    def test_process_replay_equivalence(self):
        """Process workers observe every mutation (invalidate + re-export);
        the inline twin is the ground truth."""

        def prop(case):
            self.check(
                case,
                lambda: ShardedIndex(
                    DIM,
                    NUM_SHARDS,
                    factory=lambda d: FlatIndex(d),
                    executor="process",
                    num_workers=2,
                ),
                lambda: ShardedIndex(
                    DIM,
                    NUM_SHARDS,
                    factory=lambda d: FlatIndex(d),
                    executor="inline",
                ),
            )

        run_cases(prop, MutationStrategy(), cases=3, name="process_replay")
        assert owned_segment_names() == []

    def check_engine(
        self, pipeline, case, engine_kwargs: dict, passes: int, fuzzy=None
    ) -> dict[str, int]:
        """Replay ``case`` on an engine and, after every op, ask a query
        list that follows the ops ``passes`` times over: each answer must
        equal an uncached twin built once over the resulting state.
        ``fuzzy`` replaces the routed engine's q-gram tier (a
        :class:`~repro.lookup.rows.RowTableLookup` class, twin included).
        Returns the engine's last ``serving_stats()``.

        One pass is one batched lookup.  Several passes ask query by
        query, twin included: a cache changes which queries share an
        embedding batch, and the model's float32 GEMM is not
        batch-invariant to the last bit — scores are compared exactly."""
        seen = [m for e in pipeline.kg.entities() for m in e.mentions]
        short = [m for m in seen if len(m) < 4]
        # Exact hits, short strings and their typos (fuzzy tier), and
        # typo'd long labels (ANN tier) — of entities the ops may remove.
        queries = (
            seen[:12]
            + short
            + [m[:-1] + "#" for m in short]
            + [m[:-1] + "x" for m in seen[:12] if len(m) >= 6]
        )
        routed = engine_kwargs.get("router", True)
        if fuzzy is not None:
            engine_kwargs = dict(
                engine_kwargs,
                router=LookupRouter.build(
                    pipeline.kg,
                    fuzzy=fuzzy.build(pipeline.kg, include_aliases=True),
                ),
            )
        model = EngineModel(pipeline)
        with LookupEngine.from_pipeline(pipeline, **engine_kwargs) as engine:
            for step, op in enumerate(case.ops):
                apply_engine_op(engine, model, step, op)
                added = model.surface.get(f"N{step}", ())
                queries += [*added, *(m[:-1] + "#" for m in added)]
                if routed:
                    assert any(engine.router.wants_fuzzy(q) for q in queries)

                def ask(service):
                    if passes == 1:
                        return service.lookup_batch(queries, case.k)
                    return [service.lookup(q, case.k) for q in queries]

                with model.twin(routed, fuzzy or QGramLookup) as twin:
                    want = ask(twin)
                for asked in range(passes):
                    assert ask(engine) == want, (
                        f"after op {step} ({op[0]}), pass {asked}"
                    )
            return engine.serving_stats()

    @pytest.mark.parametrize(
        "index_kwargs",
        [{}, {"num_shards": 2}],
        ids=["flat", "sharded"],
    )
    def test_routed_engine_replay_equivalence(
        self, trained_service, index_kwargs
    ):
        """Every tier of a routed engine follows entity mutations: after
        each op the exact, fuzzy and ANN answers equal a twin whose
        router and index were built once over the resulting state —
        whatever served index the engine holds."""

        def prop(case):
            self.check_engine(
                trained_service,
                case,
                {"router": True, "cache_size": 0, **index_kwargs},
                passes=1,
            )

        run_cases(prop, MutationStrategy(), cases=10, name="routed_replay")

    @pytest.mark.parametrize(
        "engine_kwargs",
        [
            {"router": True},
            {"router": True, "num_shards": 2},
            {"router": False},
        ],
        ids=["flat", "sharded", "no_router"],
    )
    def test_cached_engine_replay_equivalence(
        self, trained_service, engine_kwargs
    ):
        """The same property with the result cache on: it is never
        cleared, so after each op the first pass is served partly by
        answers cached before the op — exactly those the invalidation
        rule let stand — and the second pass wholly from the cache.
        ``no_router`` serves everything from the ANN tier.  Every served
        index has a pair kernel, so no write strands a tier whole."""

        def prop(case):
            stats = self.check_engine(
                trained_service,
                case,
                {"cache_size": 512, **engine_kwargs},
                passes=2,
            )
            assert stats["cache_fallback_clears"] == 0

        run_cases(prop, MutationStrategy(), cases=10, name="cached_replay")

    def test_cached_engine_replay_equivalence_gramless_fuzzy(
        self, trained_service
    ):
        """The cached property behind a fuzzy tier without gram sets
        (:class:`LevenshteinLookup`): an add can neither re-score its
        answers nor judge the tier flip of an ANN answer, so it strands
        both tiers whole — the one whole-tier fallback left, shown to
        run by every case that appends rows after answers were cached."""

        def prop(case):
            stats = self.check_engine(
                trained_service,
                case,
                {"cache_size": 512},
                passes=2,
                fuzzy=LevenshteinLookup,
            )
            if any(op[0] in ("add", "update") for op in case.ops[1:]):
                assert stats["cache_fallback_clears"] > 0

        run_cases(
            prop, MutationStrategy(), cases=10, name="cached_gramless_replay"
        )

    def test_cached_engine_replay_equivalence_tier_flip(self, trained_service):
        """The cached-vs-uncached property on a case built to flip the
        tier: an ANN answer is cached, then an entity is added whose
        mention reaches τ against its query while its vector stays beyond
        the answer's k-th distance — only the tier-flip clause can strand
        the answer, and the fuzzy tier answers the query from then on."""
        query = "qqqq jjjj zzzz vvvv"
        pipeline = trained_service
        seen = [m for e in pipeline.kg.entities() for m in e.mentions]
        queries = [query, *seen[:8]] + [
            m[:-1] + "x" for m in seen[:12] if len(m) >= 6
        ]
        model = EngineModel(pipeline)
        with LookupEngine.from_pipeline(
            pipeline, router=True, cache_size=512
        ) as engine:
            router, fuzzy = engine.router, engine.router.fuzzy
            assert not router.wants_fuzzy(query)
            cached = [engine.lookup(q, K) for q in queries]
            kth = -cached[0][-1].score
            vector = pipeline.embed_queries([query])
            words = query.split()
            for mention in (f"{a} {b}" for a in words for b in words if a != b):
                jaccard = fuzzy.best_pair_scores(
                    [fuzzy.grams(query)], [fuzzy.grams(mention)]
                )[0]
                distance = float(
                    ((pipeline.embed_queries([mention]) - vector) ** 2).sum()
                )
                if jaccard >= TAU and distance > 1.01 * kth:
                    break
            else:
                pytest.fail("no mention reaches τ from beyond the k-th distance")
            engine.apply_mutation(
                IndexMutation(0, "add", "flip", mentions=(mention,))
            )
            model.add("flip", (mention,))
            assert router.wants_fuzzy(query)
            assert engine.serving_stats()["results_stranded"] >= 1
            with model.twin() as twin:
                want = [twin.lookup(q, K) for q in queries]
            assert want[0][0].entity_id == "flip"
            for asked in range(2):
                got = [engine.lookup(q, K) for q in queries]
                assert got == want, f"pass {asked}"

    def test_cached_engine_replay_equivalence_query_becomes_a_label(
        self, trained_service
    ):
        """The cached-vs-uncached property on the case no key clause
        guards any more: a fuzzy answer is cached for ``query``, then an
        entity whose mention *is* ``query`` is added (the label table
        answers it from then on, ahead of the cache) and removed again
        (the fuzzy tier answers it again).  After every step the cached
        engine equals an uncached twin, each query asked twice."""
        pipeline = trained_service
        seen = [m for e in pipeline.kg.entities() for m in e.mentions]
        query = next(m for m in seen if len(m) == 3 and m.isalpha())[:-1] + "#"
        queries = [query, *seen[:8]] + [
            m[:-1] + "x" for m in seen[:12] if len(m) >= 6
        ]
        model = EngineModel(pipeline)
        with LookupEngine.from_pipeline(
            pipeline, router=True, cache_size=512
        ) as engine:
            assert not engine.router.label_table.get(query)
            assert engine.router.wants_fuzzy(query)

            def check(step: str) -> None:
                with model.twin() as twin:
                    want = [twin.lookup(q, K) for q in queries]
                for asked in range(2):
                    got = [engine.lookup(q, K) for q in queries]
                    assert got == want, f"{step}, pass {asked}"

            check("fuzzy answer cached")
            assert engine.cache.get_result(query, K) is not None
            engine.apply_mutation(
                IndexMutation(0, "add", "shadow", mentions=(query,))
            )
            model.add("shadow", (query,))
            check("query is a label")
            assert engine.lookup(query, K) == [("shadow", 1.0)]
            engine.apply_mutation(IndexMutation(1, "remove", "shadow"))
            model.remove("shadow")
            check("label removed")


# -- old-or-new under concurrency -------------------------------------------------


class OldOrNewStrategy(MutationStrategy):
    """Cases with exactly one mutation op (the racing write)."""

    def generate(self, rng: np.random.Generator) -> MutationCase:
        case = super().generate(rng)
        kind = ("add", "remove", "update")[int(rng.integers(0, 3))]
        return replace(
            case, ops=((kind, int(rng.integers(0, 2**31)), 3),)
        )

    def shrink(self, case: MutationCase):
        if case.n_initial > 8:
            yield replace(case, n_initial=max(8, case.n_initial // 2))


class TestOldOrNew:
    """A lookup racing one mutation sees the old set or the new set —
    bit-identical to one of the two sequential oracles, never a blend."""

    SEARCHERS = 4
    ROUNDS = 6

    def check(self, case: MutationCase, build_live, build_twin) -> None:
        queries = queries_for(case)
        initial = (
            case_rng(case.seed, 2)
            .standard_normal((case.n_initial, DIM))
            .astype(np.float32)
        )
        model = BulkModel(initial)
        index = build_live()
        try:
            index.train(initial)
            index.add(initial)
            old_twin = model.twin(build_twin)
            old = old_twin.search(queries, case.k)
            barrier = threading.Barrier(self.SEARCHERS + 1)
            observed = [[] for _ in range(self.SEARCHERS)]
            errors = []

            def search(slot):
                try:
                    barrier.wait()
                    for _ in range(self.ROUNDS):
                        observed[slot].append(index.search(queries, case.k))
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            def mutate():
                barrier.wait()
                apply_op(index, model, case.ops[0])

            threads = [
                threading.Thread(target=search, args=(slot,))
                for slot in range(self.SEARCHERS)
            ] + [threading.Thread(target=mutate)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]
            new_twin = model.twin(build_twin)
            new = new_twin.search(queries, case.k)
            for slot_results in observed:
                for result in slot_results:
                    matches_old = _equals(result, old)
                    matches_new = _equals(result, new)
                    assert matches_old or matches_new, (
                        f"torn read: {result.ids.tolist()} is neither the "
                        f"pre-mutation result {old.ids.tolist()} nor the "
                        f"post-mutation result {new.ids.tolist()}"
                    )
            close = getattr(old_twin, "close", None)
            if close:
                close()
            close = getattr(new_twin, "close", None)
            if close:
                close()
        finally:
            close = getattr(index, "close", None)
            if close:
                close()

    def test_flat_old_or_new(self):
        def prop(case):
            self.check(case, lambda: FlatIndex(DIM), lambda: FlatIndex(DIM))

        run_cases(prop, OldOrNewStrategy(), cases=20, name="flat_old_or_new")

    def test_sharded_inline_old_or_new(self):
        def prop(case):
            self.check(
                case,
                lambda: ShardedIndex(
                    DIM,
                    NUM_SHARDS,
                    factory=lambda d: FlatIndex(d),
                    executor="inline",
                ),
                lambda: ShardedIndex(
                    DIM,
                    NUM_SHARDS,
                    factory=lambda d: FlatIndex(d),
                    executor="inline",
                ),
            )

        run_cases(
            prop, OldOrNewStrategy(), cases=8, name="sharded_old_or_new"
        )

    def test_sharded_process_old_or_new(self):
        def prop(case):
            self.check(
                case,
                lambda: ShardedIndex(
                    DIM,
                    NUM_SHARDS,
                    factory=lambda d: FlatIndex(d),
                    executor="process",
                    num_workers=2,
                ),
                lambda: ShardedIndex(
                    DIM,
                    NUM_SHARDS,
                    factory=lambda d: FlatIndex(d),
                    executor="inline",
                ),
            )

        run_cases(
            prop, OldOrNewStrategy(), cases=3, name="process_old_or_new"
        )
        assert owned_segment_names() == []


def _equals(got, want) -> bool:
    return np.array_equal(got.ids, want.ids) and np.array_equal(
        got.distances, want.distances
    )


# -- compaction crash safety ------------------------------------------------------


class TestCompactionCrash:
    @pytest.fixture()
    def populated(self, request):
        executor = request.param
        rng = case_rng(37, 0)
        vectors = rng.standard_normal((96, DIM)).astype(np.float32)
        queries = rng.standard_normal((5, DIM)).astype(np.float32)
        plan = FaultPlan.parse("*:c0:compact")
        index = ShardedIndex(
            DIM,
            NUM_SHARDS,
            factory=lambda d: FlatIndex(d),
            executor=executor,
            num_workers=2 if executor == "process" else None,
            fault_hook=plan,
        )
        index.train(vectors)
        index.add(vectors)
        index.remove(np.arange(0, 24, dtype=np.int64))
        yield index, plan, queries
        index.close()

    @pytest.mark.parametrize(
        "populated", ["inline", "process"], indirect=True
    )
    def test_crash_at_swap_leaves_old_shards_serving(self, populated):
        """The injected swap crash aborts all-or-nothing: bit-identical
        results from the old shard set, tombstones intact, no shm leak,
        and the *next* compaction attempt succeeds."""
        index, plan, queries = populated
        before = index.search(queries, 10)
        with pytest.raises(FaultInjected):
            index.compact()
        assert plan.fired == 1
        assert index.tombstone_count == 24
        assert_topk_equal(
            index.search(queries, 10), before, context="post-crash"
        )
        remap = index.compact()  # attempt c1 is not matched by the plan
        assert remap is not None
        assert index.tombstone_count == 0 and index.ntotal == 72
        after = index.search(queries, 10)
        assert np.array_equal(remap[before.ids], after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)
        index.close()
        assert owned_segment_names() == []

    def test_mutation_mid_compaction_aborts_swap(self):
        """A mutation landing between build and swap bumps the epoch; the
        compaction must abort (return None) rather than publish shards
        that no longer reflect the store."""
        rng = case_rng(41, 0)
        vectors = rng.standard_normal((60, DIM)).astype(np.float32)
        queries = rng.standard_normal((4, DIM)).astype(np.float32)
        index = ShardedIndex(
            DIM, NUM_SHARDS, factory=lambda d: FlatIndex(d), executor="inline"
        )
        extra = rng.standard_normal((3, DIM)).astype(np.float32)

        class MutateAtSwap:
            def __init__(self):
                self.fired = 0

            def on_compaction(self, phase):
                if phase == "swap" and self.fired == 0:
                    self.fired += 1
                    index.add(extra)

        hook = MutateAtSwap()
        index.fault_hook = hook
        index.train(vectors)
        index.add(vectors)
        index.remove(np.arange(0, 10, dtype=np.int64))
        assert index.compact() is None  # epoch moved mid-build: abort
        assert hook.fired == 1
        assert index.tombstone_count == 10  # nothing reclaimed
        assert index.ntotal == 63  # the racing add landed
        got = index.search(extra, 1)
        assert (got.ids[:, 0] >= 60).all()
        index.fault_hook = None
        remap = index.compact()  # quiescent retry succeeds
        assert remap is not None and index.ntotal == 53
        index.close()
