"""Dtype/layout coercion at the index ``add()``/``search()`` boundary.

The public entry points take any numeric ``(..., d)`` array: callers
may hand over float64, Fortran-ordered, or single-row 1-D arrays, and
:meth:`VectorIndex._check_vectors` coerces them to contiguous float32
exactly once at the boundary, so every kernel behind it sees float32 C
rows.  These tests pin the coercion down bit-for-bit: every variant
input is generated as float32 first and then upcast or re-laid-out, so
the coerced array is *identical* to the reference and the search
results must match exactly — any drift means a kernel saw the uncoerced
array.  What comes back out is pinned too: on every served family a
search returns int64 ids and float64 distances, both ``(nq, k)``.
"""

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.ivfpq import IVFPQIndex
from repro.index.lsh import LSHIndex
from repro.index.pq import PQIndex
from repro.index.sharded import ShardedIndex

DIM = 8
N = 96
K = 5


def make_data(seed=0, n=N, d=DIM):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)).astype(np.float32)


def build(factory, data):
    """Train (if needed) and fill one index from float32-C ``data``."""
    index = factory()
    if not index.is_trained:
        index.train(data)
    index.add(data)
    return index


FACTORIES = {
    "flat": lambda: FlatIndex(DIM),
    "pq": lambda: PQIndex(DIM, m=2, nbits=4, seed=7),
    "ivf": lambda: IVFFlatIndex(DIM, nlist=8, nprobe=8, seed=7),
    "ivfpq": lambda: IVFPQIndex(
        DIM, nlist=4, m=2, nbits=4, nprobe=4, seed=7
    ),
    "lsh": lambda: LSHIndex(DIM, nbits=8, ntables=4, seed=7),
    "hnsw": lambda: HNSWIndex(DIM, m=4, ef_construction=16, seed=7),
    "sharded": lambda: ShardedIndex(DIM, 4, executor="inline"),
}

# The families the serving stack holds (repro.index.mutation.served_snapshot).
SERVED = {
    "flat": FACTORIES["flat"],
    "pq": FACTORIES["pq"],
    "sharded_inline": lambda: ShardedIndex(DIM, 2, executor="inline"),
    "sharded_process": lambda: ShardedIndex(DIM, 2, executor="process"),
}

VARIANTS = {
    "float64": lambda a: a.astype(np.float64),  # exact upcast
    "fortran": np.asfortranarray,
    "f64_fortran": lambda a: np.asfortranarray(a.astype(np.float64)),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestBoundaryEquivalence:
    def test_variant_add_matches_reference(self, name, variant):
        data = make_data()
        queries = make_data(seed=1, n=10)
        reference = build(FACTORIES[name], data)
        other = FACTORIES[name]()
        mutate = VARIANTS[variant]
        if not other.is_trained:
            other.train(mutate(data))
        other.add(mutate(data))
        expected = reference.search(queries, K)
        got = other.search(queries, K)
        np.testing.assert_array_equal(got.ids, expected.ids)
        np.testing.assert_array_equal(got.distances, expected.distances)

    def test_variant_queries_match_reference(self, name, variant):
        data = make_data()
        queries = make_data(seed=2, n=10)
        index = build(FACTORIES[name], data)
        expected = index.search(queries, K)
        got = index.search(VARIANTS[variant](queries), K)
        np.testing.assert_array_equal(got.ids, expected.ids)
        np.testing.assert_array_equal(got.distances, expected.distances)


class TestBoundaryShape:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_single_vector_promoted_to_row(self, name):
        data = make_data()
        index = build(FACTORIES[name], data)
        expected = index.search(data[:1], K)
        got = index.search(data[0], K)  # 1-D: one query row
        np.testing.assert_array_equal(got.ids, expected.ids)
        np.testing.assert_array_equal(got.distances, expected.distances)
        assert got.ids.shape == (1, K)

    @pytest.mark.parametrize("name", sorted(SERVED))
    def test_ids_are_int64_after_f64_add(self, name):
        # assert_array_equal ignores dtype, so the equivalence suites do
        # not pin what a served search hands the rank stage.
        data = make_data(n=32).astype(np.float64)
        index = SERVED[name]()
        try:
            if not index.is_trained:
                index.train(data)
            index.add(data)
            result = index.search(data[:4], K)
        finally:
            getattr(index, "close", lambda: None)()
        assert result.ids.dtype == np.int64
        assert result.distances.dtype == np.float64
        assert result.ids.shape == result.distances.shape == (4, K)

    def test_storage_coerced_to_float32(self):
        # reconstruct() exposes the stored row: an f64 add must land as
        # the bit-identical f32 row, not a silently-kept f64 copy.
        data = make_data(n=16)
        index = FlatIndex(DIM)
        index.add(data.astype(np.float64))
        row = index.reconstruct(3)
        assert row.dtype == np.float32
        np.testing.assert_array_equal(row, data[3])

    def test_wrong_width_still_rejected(self):
        index = FlatIndex(DIM)
        with pytest.raises(ValueError):
            index.add(np.zeros((4, DIM + 1), dtype=np.float64))
        index.add(make_data(n=8))
        with pytest.raises(ValueError):
            index.search(np.zeros((2, DIM - 1)), 2)
