"""Differential properties: production indexes vs the brute-force oracle.

Two assertion tiers, matching what the arithmetic actually guarantees:

- **exactness** — the selection/merge machinery is exactly
  partition-invariant, PQ's ADC distances are computed per row in a
  fixed order and the flat scan re-scores its survivors one (query, row)
  pair at a time, so both families are *bit-identical* across any
  block/shard/batch partitioning of one store;
- **agreement** — a production scan and the oracle add the same terms in
  different orders, so production-vs-oracle comparisons use
  :func:`assert_topk_agrees`, which permits reordering only inside
  oracle distance tie groups.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import EmbLookup
from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.ivfpq import IVFPQIndex
from repro.index.lsh import LSHIndex
from repro.index.pq import PQIndex
from repro.index.sharded import ShardedIndex
from repro.lookup.cache import QueryCache
from repro.lookup.emblookup_service import EmbLookupService
from repro.serving.engine import LookupEngine
from tests.support import (
    GridStrategy,
    LabelStrategy,
    TupleStrategy,
    VectorStoreStrategy,
    assert_topk_agrees,
    assert_topk_equal,
    assert_valid_topk,
    brute_force_topk,
    case_rng,
    recall_at_k,
)

# The adversarial (unconditioned) stores contain ±inf on purpose; the
# production expansion kernel then emits inf-arithmetic warnings that are
# the scenario under test, not a defect.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)

#: Tolerances for kernel-rounding disagreement (direct vs expansion form,
#: gemv vs gemm widths).  Absolute floor covers cancellation error at the
#: largest conditioned magnitudes the strategies emit.
RTOL = 1e-6
ATOL = 1e-9


def sharded_flat(dim, num_shards, block_size):
    return ShardedIndex(
        dim,
        num_shards,
        factory=lambda d: FlatIndex(d, block_size=block_size),
    )


class TestFlatDifferential:
    def test_flat_agrees_with_oracle_on_adversarial_stores(self):
        """Blocked flat scan == float64 oracle, over duplicate/near-tie/
        zero/huge/inf stores and degenerate (k, block) corners."""
        from tests.support import run_cases

        strategy = TupleStrategy(
            VectorStoreStrategy(conditioned=False), GridStrategy()
        )

        def prop(case):
            store, grid = case
            index = FlatIndex(store.dim, block_size=grid.block_size)
            index.add(store.vectors)
            got = index.search(store.queries, grid.k)
            oracle = brute_force_topk(store.vectors, store.queries, grid.k)
            assert_valid_topk(
                got, len(store.vectors), grid.k, context=store.note
            )
            assert_topk_agrees(
                got, oracle, rtol=RTOL, atol=ATOL, context=store.note
            )

        run_cases(prop, strategy, name="flat_vs_oracle")

    def test_sharded_flat_agrees_with_oracle(self):
        """Sharded fan-in (including empty shards when n < num_shards)
        retrieves the oracle's neighbours for any grid corner."""
        from tests.support import run_cases

        strategy = TupleStrategy(
            VectorStoreStrategy(conditioned=False), GridStrategy()
        )

        def prop(case):
            store, grid = case
            index = sharded_flat(store.dim, grid.num_shards, grid.block_size)
            index.add(store.vectors)
            try:
                got = index.search(store.queries, grid.k)
                oracle = brute_force_topk(
                    store.vectors, store.queries, grid.k
                )
                assert_valid_topk(
                    got, len(store.vectors), grid.k, context=store.note
                )
                assert_topk_agrees(
                    got, oracle, rtol=RTOL, atol=ATOL, context=store.note
                )
            finally:
                index.close()

        run_cases(prop, strategy, name="sharded_vs_oracle")

    def test_flat_search_is_deterministic(self):
        """Same index, same queries: repeated searches are bit-identical."""
        from tests.support import run_cases

        strategy = VectorStoreStrategy(conditioned=False)

        def prop(store):
            index = FlatIndex(store.dim, block_size=7)
            index.add(store.vectors)
            first = index.search(store.queries, 5)
            second = index.search(store.queries, 5)
            assert_topk_equal(second, first, context=store.note)

        run_cases(prop, strategy, name="flat_determinism")

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_flat_pair_purity_is_bit_exact(self, metric):
        """A flat distance is a function of its (query, row) pair alone:
        ids *and* distances are bit-identical across block sizes, shard
        counts, batch composition and compaction."""
        from tests.support import run_cases

        strategy = TupleStrategy(
            VectorStoreStrategy(conditioned=False), GridStrategy()
        )

        def prop(case):
            store, grid = case
            n, k = len(store.vectors), grid.k
            reference = FlatIndex(store.dim, metric=metric, block_size=n)
            reference.add(store.vectors)
            want = reference.search(store.queries, k)

            for block in (1, 7):
                assert_topk_equal(
                    reference.search(store.queries, k, block_size=block),
                    want,
                    context=f"block={block} {store.note}",
                )

            for num_shards in (1, 2, 3):
                sharded = ShardedIndex(
                    store.dim,
                    num_shards,
                    factory=lambda d: FlatIndex(d, metric=metric),
                )
                sharded.add(store.vectors)
                try:
                    assert_topk_equal(
                        sharded.search(store.queries, k),
                        want,
                        context=f"shards={num_shards} {store.note}",
                    )
                finally:
                    sharded.close()

            for row, query in enumerate(store.queries):
                alone = reference.search(query, k)
                assert_topk_equal(
                    alone,
                    (want.ids[row : row + 1], want.distances[row : row + 1]),
                    context=f"query {row} alone {store.note}",
                )

            reference.remove(np.arange(0, n, 3))
            before = reference.search(store.queries, k)
            remap = reference.compact()
            moved = np.where(before.ids >= 0, remap[before.ids], -1)
            assert_topk_equal(
                reference.search(store.queries, k),
                (moved, before.distances),
                context=f"compact {store.note}",
            )

        run_cases(prop, strategy, cases=40, name=f"flat_pair_purity_{metric}")


class TestFlatTwoStageScan:
    """The float32 coarse pass may only drop rows it can prove are
    outside the top-k; everything else is decided in float64."""

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_cut_keeps_every_oracle_neighbour(self, metric):
        from repro.index.flat import _survivors
        from tests.support import run_cases

        strategy = TupleStrategy(
            VectorStoreStrategy(conditioned=False), GridStrategy()
        )

        def prop(case):
            store, grid = case
            keep = _survivors(
                store.queries, store.vectors, None, grid.k, metric
            )
            oracle_ids, _ = brute_force_topk(
                store.vectors, store.queries, grid.k, metric=metric
            )
            for row, ids in enumerate(oracle_ids):
                lost = [int(i) for i in ids[ids >= 0] if not keep[row, i]]
                assert not lost, (
                    f"query {row}: cut dropped oracle neighbours {lost} "
                    f"({store.note}, k={grid.k})"
                )

        run_cases(prop, strategy, name=f"flat_cut_soundness_{metric}")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, 1e20])
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_nonfinite_coarse_scores_keep_every_live_row(self, metric, bad):
        """1e20 squares past float32's range: the coarse bound is infinite
        and nothing may be dropped on it."""
        from repro.index.flat import _survivors

        rng = case_rng(0, 0)
        vectors = rng.normal(size=(60, 8)).astype(np.float32)
        vectors[17, 3] = bad
        queries = rng.normal(size=(3, 8)).astype(np.float32)
        dead = np.array([4, 40])
        keep = _survivors(queries, vectors, dead, 5, metric)
        assert not keep[:, dead].any()
        assert np.delete(keep, dead, axis=1).all()

    def test_well_conditioned_store_keeps_few_rows(self):
        """The cut is not vacuous: on unit-scale data it leaves k rows
        plus a handful, not the block."""
        from repro.index.flat import _survivors

        rng = case_rng(0, 1)
        vectors = rng.normal(size=(2000, 64)).astype(np.float32)
        queries = rng.normal(size=(4, 64)).astype(np.float32)
        counts = _survivors(queries, vectors, None, 10, "l2").sum(axis=1)
        assert (counts >= 10).all() and (counts <= 20).all(), counts

    def test_rescore_chunking_is_invisible(self):
        """300 queries x 64 dims leave 54 survivors per 8 MiB re-score
        chunk; an inf entry makes all 130 rows survive, so the re-score
        runs in three chunks and must equal the one-row-per-block scan."""
        rng = case_rng(0, 3)
        vectors = rng.normal(size=(130, 64)).astype(np.float32)
        vectors[5, 9] = np.inf
        queries = rng.normal(size=(300, 64)).astype(np.float32)
        index = FlatIndex(64)
        index.add(vectors)
        assert_topk_equal(
            index.search(queries, 10), index.search(queries, 10, block_size=1)
        )

    @pytest.mark.parametrize("block", [7, None])
    def test_identical_rows_rank_by_id(self, block):
        index = FlatIndex(4, block_size=block)
        index.add(np.full((100, 4), 0.25, dtype=np.float32))
        got = index.search(np.ones((2, 4), dtype=np.float32), 10)
        np.testing.assert_array_equal(got.ids, [list(range(10))] * 2)
        assert (got.distances == got.distances[0, 0]).all()

    def test_k_beyond_live_rows_pads_after_the_live_ones(self):
        rng = case_rng(0, 2)
        vectors = rng.normal(size=(10, 4)).astype(np.float32)
        queries = rng.normal(size=(3, 4)).astype(np.float32)
        index = FlatIndex(4, block_size=4)
        index.add(vectors)
        index.remove([1, 4, 5, 9])
        live = np.array([0, 2, 3, 6, 7, 8])
        got = index.search(queries, 8)
        oracle_ids, oracle_d = brute_force_topk(vectors[live], queries, 8)
        want_ids = np.where(oracle_ids >= 0, live[oracle_ids], -1)
        assert_topk_agrees(got, (want_ids, oracle_d), rtol=RTOL, atol=ATOL)
        np.testing.assert_array_equal(got.ids[:, 6:], -1)
        assert np.isinf(got.distances[:, 6:]).all()


class TestPQDifferential:
    """PQ's ADC path is bit-exact across partitionings: the per-row table
    sums run in fixed subspace order, so blocking and sharding change
    nothing — the strongest differential guarantee in the index family."""

    def test_pq_partition_invariance_is_bit_exact(self):
        from tests.support import run_cases

        strategy = TupleStrategy(VectorStoreStrategy(), GridStrategy())

        def prop(case):
            store, grid = case
            reference = PQIndex(store.dim, m=1, nbits=4, seed=0)
            reference.train(store.vectors)
            reference.add(store.vectors)
            want = reference.search(store.queries, grid.k)

            blocked = PQIndex(
                store.dim, m=1, nbits=4, seed=0, block_size=grid.block_size
            )
            blocked.train(store.vectors)
            blocked.add(store.vectors)
            assert_topk_equal(
                blocked.search(store.queries, grid.k),
                want,
                context=f"block={grid.block_size} {store.note}",
            )

            sharded = ShardedIndex(
                store.dim,
                grid.num_shards,
                factory=lambda d: PQIndex(d, m=1, nbits=4, seed=0),
            )
            sharded.train(store.vectors)
            sharded.add(store.vectors)
            try:
                assert_topk_equal(
                    sharded.search(store.queries, grid.k),
                    want,
                    context=f"shards={grid.num_shards} {store.note}",
                )
            finally:
                sharded.close()

        # PQ trains a k-means codebook per case; keep the budget modest.
        run_cases(prop, strategy, cases=25, name="pq_partition_invariance")

    def test_pq_recall_against_oracle(self):
        """Quantized distances lose precision, not candidates wholesale."""
        rng = case_rng(0, 0)
        recalls = []
        for case_index in range(5):
            rng = case_rng(0, case_index)
            vectors = rng.normal(size=(64, 8)).astype(np.float32)
            queries = vectors[:8] + rng.normal(size=(8, 8)).astype(
                np.float32
            ) * 0.01
            index = PQIndex(8, m=4, nbits=8, seed=0)
            index.train(vectors)
            index.add(vectors)
            got = index.search(queries, 5)
            oracle = brute_force_topk(vectors, queries, 5)
            assert_valid_topk(got, 64, 5)
            recalls.append(recall_at_k(got.ids, oracle[0]))
        assert np.mean(recalls) >= 0.6, recalls


def _ranked_adc(index, queries, k):
    """The reference a PQ search must equal bit for bit: float64
    ``adc_distances`` over the live rows, ranked by ``(distance, id)``,
    padded with ``-1`` / ``inf`` to width ``k``."""
    snap = index.snapshot()
    live = snap.live()[0]
    scores = np.ascontiguousarray(
        snap.codec.adc_distances(queries, snap.data[live])
    )
    ids = np.tile(live, (len(queries), 1))
    order = np.lexsort((ids, scores), axis=1)[:, :k]
    rows = np.arange(len(queries))[:, None]
    want_ids = np.full((len(queries), k), -1, dtype=np.int64)
    want_d = np.full((len(queries), k), np.inf)
    want_ids[:, : order.shape[1]] = ids[rows, order]
    want_d[:, : order.shape[1]] = scores[rows, order]
    return want_ids, want_d


def _one_code_store(rng):
    vectors = np.tile(rng.normal(size=(1, 16)).astype(np.float32), (400, 1))
    return vectors, 1.0


def _duplicate_store(rng):
    vectors = rng.normal(size=(400, 16)).astype(np.float32)
    vectors[320:] = vectors[:80]
    return vectors, 1.0


def _overflowing_store(rng):
    # Codebooks at 5e18: a table entry is ~(2..20) x 2.5e37, on both sides
    # of float32's 3.4e38, so coarse scores mix finite values and inf.
    return rng.normal(size=(400, 16)).astype(np.float32), 5e18


class TestPQTwoStageScan:
    """The PQ twin of :class:`TestFlatTwoStageScan`: the float32 ADC pass
    may only drop rows at least ``k`` others strictly beat; the ranking
    is decided by the float64 table entries."""

    @staticmethod
    def _coarse_keep(pq, queries, codes, dead, k):
        from repro.index.pq import _adc_survivors

        tables32 = pq.scan_tables(queries).astype(np.float32)
        return tables32, _adc_survivors(tables32, codes, dead, k)

    @staticmethod
    def _assert_sound(keep, scores, k, context):
        ids = np.tile(np.arange(scores.shape[1]), (len(scores), 1))
        oracle = np.lexsort((ids, scores), axis=1)[:, :k]
        for row, best in enumerate(oracle):
            lost = [int(i) for i in best if not keep[row, i]]
            assert not lost, (
                f"query {row}: cut dropped ADC neighbours {lost} ({context})"
            )

    @pytest.mark.parametrize(
        "build", [_one_code_store, _duplicate_store, _overflowing_store]
    )
    @pytest.mark.parametrize("k", [1, 10, 399])
    def test_cut_keeps_every_adc_neighbour_on_adversarial_stores(
        self, build, k
    ):
        from repro.index.pq import ProductQuantizer

        rng = case_rng(0, 4)
        vectors, scale = build(rng)
        pq = ProductQuantizer(16, m=4, nbits=5, seed=1, kmeans_iters=4)
        pq.train(vectors)
        codes = pq.encode(vectors)
        pq.codebooks = pq.codebooks * np.float32(scale)
        queries = np.concatenate(
            [vectors[:4], rng.normal(size=(4, 16)).astype(np.float32)]
        ) * np.float32(scale)
        tables32, keep = self._coarse_keep(pq, queries, codes, None, k)
        if build is _overflowing_store:
            assert np.isinf(tables32).any() and np.isfinite(tables32).any()
        if build is _one_code_store:
            assert keep.all()  # nobody is strictly beaten
        self._assert_sound(
            keep, pq.adc_distances(queries, codes), k, build.__name__
        )

    def test_cut_keeps_every_adc_neighbour_on_generated_stores(self):
        from repro.index.pq import ProductQuantizer
        from tests.support import run_cases

        strategy = TupleStrategy(
            VectorStoreStrategy(dims=(2, 8, 16)), GridStrategy()
        )

        def prop(case):
            store, grid = case
            pq = ProductQuantizer(store.dim, m=2, nbits=4, seed=0, kmeans_iters=3)
            pq.train(store.vectors)
            codes = pq.encode(store.vectors)
            _, keep = self._coarse_keep(pq, store.queries, codes, None, grid.k)
            self._assert_sound(
                keep, pq.adc_distances(store.queries, codes), grid.k, store.note
            )

        run_cases(prop, strategy, cases=25, name="pq_cut_soundness")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_queries_keep_every_live_row(self, bad):
        from repro.index.pq import ProductQuantizer

        rng = case_rng(0, 5)
        vectors = rng.normal(size=(60, 8)).astype(np.float32)
        pq = ProductQuantizer(8, m=4, nbits=4, seed=1, kmeans_iters=4)
        pq.train(vectors)
        codes = pq.encode(vectors)
        queries = rng.normal(size=(3, 8)).astype(np.float32)
        queries[1, 3] = bad
        dead = np.array([4, 40])
        _, keep = self._coarse_keep(pq, queries, codes, dead, 5)
        assert not keep[:, dead].any()
        assert np.delete(keep[1], dead).all()
        # The healthy queries beside it are still cut, and soundly.
        assert not np.delete(keep[[0, 2]], dead, axis=1).all()
        live = np.delete(np.arange(60), dead)
        scores = pq.adc_distances(queries[[0, 2]], codes[live])
        self._assert_sound(keep[[0, 2]][:, live], scores, 5, f"bad={bad}")

    def test_workload_shaped_store_keeps_k_plus_duplicates(self):
        """The cut is not vacuous: of a 3 000-row, 8-byte-code shard it
        leaves the rows at or below the k-th exact score (k plus the
        exact-duplicate codes there) and a handful, not the block."""
        from repro.index.pq import ProductQuantizer

        rng = case_rng(0, 6)
        vectors = rng.normal(size=(3000, 64)).astype(np.float32)
        vectors[2400:] = vectors[:600]
        pq = ProductQuantizer(64, m=8, nbits=8, seed=3, kmeans_iters=3)
        pq.train(vectors)
        codes = pq.encode(vectors)
        queries = vectors[rng.choice(3000, 32)] + 0.05 * rng.normal(
            size=(32, 64)
        ).astype(np.float32)
        _, keep = self._coarse_keep(pq, queries, codes, None, 10)
        scores = pq.adc_distances(queries, codes)
        kth = np.partition(scores, 9, axis=1)[:, 9:10]
        at_or_below = (scores <= kth).sum(axis=1)
        counts = keep.sum(axis=1)
        assert (at_or_below > 10).any()  # the store does tie at the cut
        assert (counts >= at_or_below).all()
        assert (counts <= at_or_below + 5).all(), counts - at_or_below

    def test_search_equals_ranked_adc_across_block_sizes(self):
        """Ids *and* distances are those of the float64 reference, bit for
        bit, whatever the block size, with tombstones in every block."""
        from tests.support import run_cases

        strategy = TupleStrategy(
            VectorStoreStrategy(dims=(2, 8, 16)), GridStrategy()
        )

        def prop(case):
            store, grid = case
            index = PQIndex(store.dim, m=2, nbits=4, seed=0, kmeans_iters=3)
            index.train(store.vectors)
            index.add(store.vectors)
            index.remove(np.arange(0, len(store.vectors), 3))
            want_ids, want_d = _ranked_adc(index, store.queries, grid.k)
            for block in (1, 7, 256, None):
                got = index.search(store.queries, grid.k, block_size=block)
                context = f"block={block} k={grid.k} {store.note}"
                assert got.ids.tobytes() == want_ids.tobytes(), context
                assert got.distances.tobytes() == want_d.tobytes(), context

        run_cases(prop, strategy, cases=25, name="pq_two_stage_vs_adc")

    def test_k_beyond_live_rows_pads_after_the_live_ones(self):
        rng = case_rng(0, 7)
        vectors = rng.normal(size=(10, 4)).astype(np.float32)
        queries = rng.normal(size=(3, 4)).astype(np.float32)
        index = PQIndex(4, m=2, nbits=3, seed=0, block_size=4)
        index.train(vectors)
        index.add(vectors)
        index.remove([1, 4, 5, 9])
        got = index.search(queries, 8)
        want_ids, want_d = _ranked_adc(index, queries, 8)
        np.testing.assert_array_equal(got.ids, want_ids)
        np.testing.assert_array_equal(got.distances, want_d)
        assert (np.sort(got.ids[:, :6], axis=1) == [0, 2, 3, 6, 7, 8]).all()
        np.testing.assert_array_equal(got.ids[:, 6:], -1)
        assert np.isinf(got.distances[:, 6:]).all()


class TestANNRecallFloors:
    """Approximate families: structural validity on every case, plus a
    conservative mean-recall floor against the oracle (per family)."""

    CASES = 8

    def _store(self, case_index, n=96, dim=16):
        rng = case_rng(0, case_index)
        # Clustered data: ANN structures are built for it, and it keeps
        # the floors meaningful instead of vacuous.
        centers = rng.normal(size=(6, dim)) * 4.0
        assignments = rng.integers(0, 6, size=n)
        vectors = (
            centers[assignments] + rng.normal(size=(n, dim)) * 0.3
        ).astype(np.float32)
        queries = vectors[:10] + rng.normal(size=(10, dim)).astype(
            np.float32
        ) * 0.05
        return vectors, queries

    def _check_family(self, build, floor, k=10):
        recalls = []
        for case_index in range(self.CASES):
            vectors, queries = self._store(case_index)
            index = build(vectors.shape[1], case_index)
            index.train(vectors)
            index.add(vectors)
            got = index.search(queries, k)
            assert_valid_topk(got, len(vectors), k, context=type(index).__name__)
            oracle = brute_force_topk(vectors, queries, k)
            recalls.append(recall_at_k(got.ids, oracle[0]))
        mean = float(np.mean(recalls))
        assert mean >= floor, f"mean recall {mean:.3f} < floor {floor}: {recalls}"

    def test_ivf_flat_recall_floor(self):
        self._check_family(
            lambda dim, i: IVFFlatIndex(dim, nlist=6, nprobe=3, seed=i),
            floor=0.6,
        )

    def test_ivfpq_recall_floor(self):
        self._check_family(
            lambda dim, i: IVFPQIndex(
                dim, nlist=6, m=4, nbits=8, nprobe=3, seed=i
            ),
            floor=0.4,
        )

    def test_lsh_recall_floor(self):
        self._check_family(
            lambda dim, i: LSHIndex(dim, nbits=12, ntables=8, seed=i),
            floor=0.4,
        )

    def test_hnsw_recall_floor(self):
        self._check_family(
            lambda dim, i: HNSWIndex(
                dim, m=8, ef_construction=48, ef_search=32, seed=i
            ),
            floor=0.8,
        )


class _MentionBatch:
    """33 labels / typo'd aliases of :class:`LabelStrategy`, one case."""

    SIZE = 33

    def __init__(self):
        self.labels = LabelStrategy(max_len=24, num_aliases=2)

    def generate(self, rng):
        mentions = []
        while len(mentions) < self.SIZE:
            label, aliases = self.labels.generate(rng)
            mentions += [label, *aliases]
        return mentions[: self.SIZE]

    def shrink(self, mentions):
        if len(mentions) > 1:
            yield mentions[: len(mentions) // 2]
            yield mentions[1:]


class TestInferenceForwardDifferential:
    """``embed`` (``repro.embedding.inference``, no tape) vs the autograd
    ``forward_mentions`` it replaced on the query path.

    Same float32 arithmetic, different summation order: layer 1 adds three
    table rows where the reference multiplies a one-hot tensor, the other
    layers and the head feed BLAS ``(k, c)``-ordered columns where the
    reference feeds ``(c, k)``, and BLAS itself sums in a different order
    per gemm height — the reference's own batch-1 and batch-512 rows differ
    by 2.6e-7 on normalised outputs.  Each rounding is 2**-24 relative
    (6e-8) and a few dozen accumulate over 5 conv layers, the head and two
    fuse layers, so the bound is 1e-6 at magnitude <= 1 and scales with the
    largest reference entry for un-normalised outputs.  A wrong tap, a
    wrong head permutation or a skipped pad shows up at 1e-2.
    """

    ATOL = 1e-6
    #: max_length 16 < LabelStrategy's 24: truncation is exercised; the
    #: alphabet has no accented / greek / cyrillic / CJK: unknown row 0 is.
    MAX_LENGTH = 16

    def _model(self, normalize_output, finetune_fasttext):
        from repro.embedding.emblookup_model import EmbLookupModel
        from repro.embedding.fasttext import FastTextConfig, FastTextModel
        from repro.text.alphabet import Alphabet
        from repro.text.encoding import OneHotEncoder

        encoder = OneHotEncoder(
            Alphabet("abcdefghijklmnopqrstuvwxyz0123456789 -'"),
            max_length=self.MAX_LENGTH,
        )
        fasttext = FastTextModel(
            FastTextConfig(dim=16, buckets=2**10, epochs=0, seed=5)
        )
        model = EmbLookupModel(
            encoder,
            fasttext,
            out_dim=16,
            finetune_fasttext=finetune_fasttext,
            normalize_output=normalize_output,
            rng=7,
        )
        # Zero-initialised biases would hide a dropped or misplaced bias.
        rng = np.random.default_rng(11)
        for name, param in model.named_parameters():
            if name.endswith("bias"):
                param.data[...] = rng.normal(scale=0.1, size=param.data.shape)
        return model

    def _reference(self, model, mentions):
        from repro.nn.tensor import no_grad

        with no_grad():
            return model.forward_mentions(list(mentions)).data

    @pytest.mark.parametrize("finetune_fasttext", [False, True])
    @pytest.mark.parametrize("normalize_output", [False, True])
    def test_embed_matches_autograd_forward(
        self, normalize_output, finetune_fasttext
    ):
        from tests.support import run_cases

        model = self._model(normalize_output, finetune_fasttext)

        def prop(mentions):
            single = np.concatenate([model.embed([m]) for m in mentions])
            for size in (1, 2, 33):
                batch = mentions[:size]
                want = self._reference(model, batch)
                got = model.embed(batch)
                assert got.dtype == np.float32 and got.shape == want.shape
                atol = self.ATOL * max(1.0, float(np.abs(want).max()))
                worst = float(np.abs(got - want).max())
                assert worst <= atol, (
                    f"batch {size}: |embed - forward_mentions| = {worst:.3g}"
                )
                # Row i of a batch is the batch-1 result of the same string.
                drift = float(np.abs(got - single[: len(batch)]).max())
                assert drift <= atol, f"batch {size} vs batch 1: {drift:.3g}"

        run_cases(
            prop, _MentionBatch(), cases=25, name="inference_vs_autograd"
        )

    def test_strategy_reaches_the_edge_cases(self):
        """The property above is only as good as its inputs: over its 25
        cases the strategy must produce unknown characters, labels longer
        than ``max_length``, labels that normalise to nothing, and
        multi-token labels."""
        from repro.text.tokenize import normalize, word_tokens

        model = self._model(True, False)
        known = model.encoder.alphabet
        strategy = _MentionBatch()
        mentions = [
            m for i in range(25) for m in strategy.generate(case_rng(0, i))
        ]
        assert any(ch not in known for m in mentions for ch in m)
        assert any(len(m) > self.MAX_LENGTH for m in mentions)
        assert any(m and not normalize(m) for m in mentions)
        assert any(len(word_tokens(m)) > 1 for m in mentions)

    def test_towers_match_their_autograd_forwards(self):
        """The two single-tower ``embed`` methods share the kernels."""
        from repro.nn.tensor import no_grad
        from repro.text.tokenize import normalize

        model = self._model(False, True)
        strategy = _MentionBatch()
        for index in range(5):
            mentions = strategy.generate(case_rng(1, index))
            with no_grad():
                cnn = model.cnn(model.encoder.encode_codes(mentions)).data
                bags = model.fasttext.embed_tensor(mentions).data
            np.testing.assert_allclose(
                model.cnn.embed(mentions), cnn, rtol=0, atol=self.ATOL
            )
            np.testing.assert_allclose(
                model.fasttext.embed(mentions), bags, rtol=0, atol=self.ATOL
            )
            np.testing.assert_array_equal(
                model.embed_normalized([normalize(m) for m in mentions]),
                model.embed([normalize(m) for m in mentions]),
            )


class TestLookupStackDifferential:
    """One fitted pipeline behind every way in: ``EmbLookup.lookup_batch``,
    ``EmbLookupService`` and ``LookupEngine`` (each with and without a
    result cache) run the same over-fetch -> search -> resolve sequence,
    so they return the same entity ids with ``score == -distance``.

    Exact equality: every pass below is all-miss or all-hit, so each path
    embeds and scans the same batch.
    """

    @pytest.mark.parametrize("aliases", [False, True])
    def test_pipeline_service_and_engine_agree(
        self, trained_service, tiny_kg, aliases
    ):
        pipe = EmbLookup(
            dataclasses.replace(
                trained_service.config, index_entity_aliases=aliases
            )
        )
        pipe.model, pipe.encoder = trained_service.model, trained_service.encoder
        pipe.build_index(tiny_kg)
        labels = [e.label for e in tiny_kg.entities()][:40]
        queries = labels + [l[:-1] + "x" for l in labels] + labels[:5]
        k = 7
        want = [
            [(r.entity_id, -r.distance) for r in row]
            for row in pipe.lookup_batch(queries, k)
        ]
        assert all(len(row) == k for row in want)
        rows = pipe.row_entity_ids
        assert aliases == (len(set(rows)) < len(rows))

        def cache():
            return QueryCache(256, cache_results=True)

        with LookupEngine(pipe, pipe.index, rows) as engine, LookupEngine(
            pipe, pipe.index, rows, cache=cache()
        ) as cached_engine:
            stacks = {
                "service": EmbLookupService(pipe),
                "service+cache": EmbLookupService(pipe, cache=cache()),
                "engine": engine,
                "engine+cache": cached_engine,
            }
            for name, stack in stacks.items():
                for attempt in ("cold", "warm"):
                    got = stack.lookup_batch(queries, k)
                    assert [
                        [tuple(c) for c in row] for row in got
                    ] == want, (name, attempt)
            for name in ("service+cache", "engine+cache"):
                assert stacks[name].cache.stats.hits >= len(queries), name
