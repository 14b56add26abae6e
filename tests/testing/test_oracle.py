"""Tests for tests.support.oracle (reference k-NN and comparators)."""

import numpy as np
import pytest

from tests.support.oracle import (
    assert_topk_agrees,
    assert_topk_equal,
    assert_valid_topk,
    brute_force_topk,
    exact_topk,
    recall_at_k,
)


class TestExactTopk:
    def test_ranks_by_distance_then_id(self):
        distances = np.array([[2.0, 1.0, 1.0, 3.0]])
        ids, d = exact_topk(distances, 3)
        np.testing.assert_array_equal(ids, [[1, 2, 0]])
        np.testing.assert_array_equal(d, [[1.0, 1.0, 2.0]])

    def test_pads_when_k_exceeds_ntotal(self):
        ids, d = exact_topk(np.array([[5.0]]), 3)
        np.testing.assert_array_equal(ids, [[0, -1, -1]])
        assert np.isinf(d[0, 1:]).all()

    def test_nan_ranks_last(self):
        distances = np.array([[np.nan, 1.0, 2.0]])
        ids, _ = exact_topk(distances, 3)
        np.testing.assert_array_equal(ids, [[1, 2, 0]])

    def test_rejects_bad_k_and_shape(self):
        with pytest.raises(ValueError):
            exact_topk(np.zeros((1, 3)), 0)
        with pytest.raises(ValueError):
            exact_topk(np.zeros(3), 1)


class TestBruteForce:
    def test_matches_hand_computed_l2(self):
        vectors = np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
        queries = np.array([[0.0, 0.0]], dtype=np.float32)
        ids, d = brute_force_topk(vectors, queries, 2)
        np.testing.assert_array_equal(ids, [[0, 1]])
        np.testing.assert_allclose(d, [[0.0, 25.0]])

    def test_ip_metric_negates_dot(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        queries = np.array([[2.0, 1.0]], dtype=np.float32)
        ids, d = brute_force_topk(vectors, queries, 2, metric="ip")
        np.testing.assert_array_equal(ids, [[0, 1]])
        np.testing.assert_allclose(d, [[-2.0, -1.0]])

    def test_empty_store_is_all_padding(self):
        ids, d = brute_force_topk(
            np.zeros((0, 4), dtype=np.float32),
            np.zeros((2, 4), dtype=np.float32),
            3,
        )
        assert (ids == -1).all() and np.isinf(d).all()

    def test_rejects_metric_and_dim_mismatch(self):
        with pytest.raises(ValueError):
            brute_force_topk(np.zeros((1, 2)), np.zeros((1, 2)), 1, metric="cos")
        with pytest.raises(ValueError):
            brute_force_topk(np.zeros((1, 2)), np.zeros((1, 3)), 1)


class TestRecall:
    def test_partial_overlap(self):
        got = np.array([[0, 1, 9]])
        want = np.array([[0, 1, 2]])
        assert recall_at_k(got, want) == pytest.approx(2 / 3)

    def test_padding_excluded_from_denominator(self):
        got = np.array([[0, -1, -1]])
        want = np.array([[0, -1, -1]])
        assert recall_at_k(got, want) == 1.0

    def test_all_padding_oracle_counts_as_found(self):
        assert recall_at_k(np.array([[-1]]), np.array([[-1]])) == 1.0


class TestAssertTopkEqual:
    def test_accepts_identical_with_nan(self):
        ids = np.array([[1, 2]])
        d = np.array([[1.0, np.nan]])
        assert_topk_equal((ids, d), (ids.copy(), d.copy()))

    def test_rejects_id_divergence_with_location(self):
        with pytest.raises(AssertionError, match="query 0 rank 1"):
            assert_topk_equal(
                (np.array([[1, 2]]), np.array([[1.0, 2.0]])),
                (np.array([[1, 3]]), np.array([[1.0, 2.0]])),
            )

    def test_rejects_distance_divergence(self):
        ids = np.array([[1]])
        with pytest.raises(AssertionError, match="distances diverge"):
            assert_topk_equal(
                (ids, np.array([[1.0]])), (ids, np.array([[1.0 + 1e-9]]))
            )


class TestAssertTopkAgrees:
    def test_permits_swap_within_tie_group(self):
        want = (np.array([[3, 5, 9]]), np.array([[1.0, 1.0, 2.0]]))
        got = (np.array([[5, 3, 9]]), np.array([[1.0, 1.0, 2.0]]))
        assert_topk_agrees(got, want)

    def test_rejects_swap_across_groups(self):
        want = (np.array([[3, 5]]), np.array([[1.0, 2.0]]))
        got = (np.array([[5, 3]]), np.array([[1.0, 2.0]]))
        with pytest.raises(AssertionError, match="beyond ties"):
            assert_topk_agrees(got, want)

    def test_rejects_misaligned_padding(self):
        want = (np.array([[3, -1]]), np.array([[1.0, np.inf]]))
        got = (np.array([[3, 4]]), np.array([[1.0, 9.0]]))
        with pytest.raises(AssertionError, match="padding"):
            assert_topk_agrees(got, want)

    def test_tolerates_ulp_distance_noise(self):
        want = (np.array([[3]]), np.array([[100.0]]))
        got = (np.array([[3]]), np.array([[100.0 * (1 + 1e-9)]]))
        assert_topk_agrees(got, want)


class TestAssertValidTopk:
    def _good(self):
        ids = np.array([[0, 2, -1]])
        d = np.array([[1.0, 2.0, np.inf]])
        return ids, d

    def test_accepts_well_formed(self):
        assert_valid_topk(self._good(), ntotal=5, k=3)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(AssertionError, match="duplicate"):
            assert_valid_topk(
                (np.array([[1, 1]]), np.array([[1.0, 1.0]])), 5, 2
            )

    def test_rejects_real_after_padding(self):
        with pytest.raises(AssertionError, match="after padding"):
            assert_valid_topk(
                (np.array([[-1, 1]]), np.array([[np.inf, 1.0]])), 5, 2
            )

    def test_rejects_unsorted_distances(self):
        with pytest.raises(AssertionError, match="not sorted"):
            assert_valid_topk(
                (np.array([[0, 1]]), np.array([[2.0, 1.0]])), 5, 2
            )

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(AssertionError, match="out of range"):
            assert_valid_topk(
                (np.array([[7]]), np.array([[1.0]])), ntotal=5, k=1
            )

    def test_rejects_finite_padding_distance(self):
        with pytest.raises(AssertionError, match="inf distance"):
            assert_valid_topk(
                (np.array([[0, -1]]), np.array([[1.0, 2.0]])), 5, 2
            )

    def test_nan_allowed_only_as_real_suffix(self):
        assert_valid_topk(
            (np.array([[0, 1]]), np.array([[1.0, np.nan]])), 5, 2
        )
        with pytest.raises(AssertionError, match="NaN"):
            assert_valid_topk(
                (np.array([[0, 1]]), np.array([[np.nan, 1.0]])), 5, 2
            )

    def test_accepts_search_result_objects(self):
        from repro.index.base import SearchResult

        ids, d = self._good()
        assert_valid_topk(SearchResult(ids=ids, distances=d), 5, 3)
