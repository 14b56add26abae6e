"""The top-k merge under mixed dtypes and non-contiguous layouts.

``merge_topk`` takes any numeric dtype and any layout: distances may
arrive as float64 (the scans' re-scored survivors) or as views — Fortran
blocks, transposed score matrices, strided slices.  These tests assert
the merge is *value*-driven: the same scores in any dtype/layout must
produce bit-identical ids and distances to the contiguous-float32
baseline.  Inputs are generated as float32 first so the f64 upcast is
exact and "bit-identical" is well-defined.
"""

import numpy as np
import pytest

from repro.index.flat import FlatIndex
from repro.index.topk import merge_topk

NQ = 6
K = 4


def scores(seed=0, nq=NQ, n=40):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(nq, n)).astype(np.float32)


def topk_pair(seed, width, k=K, offset=0):
    """A ranked ``(ids, distances)`` top-k set built from fresh scores."""
    d = scores(seed=seed, n=width)
    ids = np.tile(np.arange(offset, offset + width, dtype=np.int64), (NQ, 1))
    return merge_topk(ids[:, :0], d[:, :0], ids, d, k)


LAYOUTS = {
    "float64": lambda a: a.astype(np.float64),
    "fortran": np.asfortranarray,
    "transposed_view": lambda a: np.ascontiguousarray(a.T).T,
    "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestMergeTopk:
    def test_matches_contiguous_float32(self, layout):
        ids_a, d_a = topk_pair(1, 30, offset=0)
        ids_b, d_b = topk_pair(2, 30, offset=30)
        ids, dist = merge_topk(ids_a, d_a, ids_b, d_b, K)
        mutate = LAYOUTS[layout]
        vids, vdist = merge_topk(
            ids_a if layout == "float64" else mutate(ids_a),
            mutate(d_a),
            ids_b if layout == "float64" else mutate(ids_b),
            mutate(d_b),
            K,
        )
        np.testing.assert_array_equal(vids, ids)
        np.testing.assert_array_equal(
            vdist.astype(np.float32), dist.astype(np.float32)
        )

    def test_mixed_dtype_sides_agree(self, layout):
        # One side f32, the other f64: ranking is by value, not dtype.
        ids_a, d_a = topk_pair(3, 25, offset=0)
        ids_b, d_b = topk_pair(4, 25, offset=25)
        ids, dist = merge_topk(ids_a, d_a, ids_b, d_b, K)
        vids, vdist = merge_topk(
            ids_a, d_a.astype(np.float64), ids_b, LAYOUTS[layout](d_b), K
        )
        np.testing.assert_array_equal(vids, ids)
        np.testing.assert_array_equal(
            vdist.astype(np.float32), dist.astype(np.float32)
        )


class TestFlatSearchEndToEnd:
    def test_f64_queries_equal_f32(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(60, 8)).astype(np.float32)
        index = FlatIndex(8, block_size=16)
        index.add(data)
        queries = rng.normal(size=(5, 8)).astype(np.float32)
        expected = index.search(queries, K)
        got = index.search(queries.astype(np.float64), K)
        np.testing.assert_array_equal(got.ids, expected.ids)
        np.testing.assert_array_equal(got.distances, expected.distances)
