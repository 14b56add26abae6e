"""Tests for repro.index.buffer (amortized-growth vector storage)."""

import numpy as np
import pytest

from repro.index.buffer import GrowBuffer
from repro.index.flat import FlatIndex
from repro.index.pq import PQIndex


class TestGrowBuffer:
    def test_starts_empty(self):
        buf = GrowBuffer(4, np.float32)
        assert len(buf) == 0
        assert buf.view.shape == (0, 4)
        assert buf.nbytes() == 0

    def test_append_and_view(self):
        buf = GrowBuffer(3, np.float32)
        rows = np.arange(6, dtype=np.float32).reshape(2, 3)
        buf.append(rows)
        np.testing.assert_array_equal(buf.view, rows)
        assert buf.nbytes() == 2 * 3 * 4

    def test_capacity_doubles(self):
        buf = GrowBuffer(1, np.float32)
        caps = set()
        for _ in range(100):
            buf.append(np.zeros((1, 1), dtype=np.float32))
            caps.add(buf.capacity)
        assert len(buf) == 100
        # Doubling growth reallocates O(log n) times, not O(n).
        assert len(caps) <= 8

    def test_view_contents_survive_growth(self):
        buf = GrowBuffer(2, np.int64)
        expected = []
        for i in range(50):
            row = np.array([[i, -i]], dtype=np.int64)
            buf.append(row)
            expected.append(row)
        np.testing.assert_array_equal(buf.view, np.concatenate(expected))

    def test_empty_append_is_noop(self):
        buf = GrowBuffer(4, np.float32)
        buf.append(np.empty((0, 4), dtype=np.float32))
        assert len(buf) == 0


class TestManySmallAdds:
    """Satellite: per-call concatenate made incremental add O(n^2)."""

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_flat_many_small_adds_match_one_big_add(self, chunk):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(300, 8)).astype(np.float32)
        queries = rng.normal(size=(4, 8)).astype(np.float32)
        one_shot = FlatIndex(8)
        one_shot.add(data)
        incremental = FlatIndex(8)
        for start in range(0, len(data), chunk):
            incremental.add(data[start : start + chunk])
        assert incremental.ntotal == 300
        want = one_shot.search(queries, 10)
        got = incremental.search(queries, 10)
        assert got.ids.tobytes() == want.ids.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()

    def test_pq_many_small_adds_match_one_big_add(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(300, 8)).astype(np.float32)
        queries = rng.normal(size=(4, 8)).astype(np.float32)
        one_shot = PQIndex(8, m=2, nbits=4, seed=3)
        one_shot.train(data)
        one_shot.add(data)
        incremental = PQIndex(8, m=2, nbits=4, seed=3)
        incremental.train(data)
        for start in range(0, len(data), 1):
            incremental.add(data[start : start + 1])
        want = one_shot.search(queries, 10)
        got = incremental.search(queries, 10)
        assert got.ids.tobytes() == want.ids.tobytes()

    def test_reallocation_count_is_logarithmic(self):
        """1000 single-row adds must not reallocate per add."""
        index = FlatIndex(4)
        grows = 0
        last_cap = index._buf.capacity
        for _ in range(1000):
            index.add(np.zeros((1, 4), dtype=np.float32))
            if index._buf.capacity != last_cap:
                grows += 1
                last_cap = index._buf.capacity
        assert grows <= 10
