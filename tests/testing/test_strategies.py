"""Tests for tests.support.strategies (generators, shrinking, replay)."""

import numpy as np
import pytest

from tests.support.strategies import (
    CASE_ENV,
    SEED_ENV,
    GridCase,
    GridStrategy,
    LabelStrategy,
    PropertyFailure,
    StoreCase,
    TupleStrategy,
    VectorStoreStrategy,
    base_seed,
    case_rng,
    run_cases,
)


class TestSeeding:
    def test_case_rng_is_deterministic(self):
        a = case_rng(3, 7).normal(size=4)
        b = case_rng(3, 7).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_cases_are_independent_streams(self):
        assert not np.array_equal(
            case_rng(3, 7).normal(size=4), case_rng(3, 8).normal(size=4)
        )

    def test_base_seed_reads_env(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "42")
        assert base_seed() == 42
        monkeypatch.delenv(SEED_ENV)
        assert base_seed(default=5) == 5


class TestRunCases:
    def test_runs_requested_count(self):
        seen = []
        run_cases(seen.append, GridStrategy(), cases=9)
        assert len(seen) == 9

    def test_failure_carries_replay_line_and_shrinks(self):
        strategy = VectorStoreStrategy()

        def prop(case):
            assert len(case.vectors) < 2, "too many rows"

        with pytest.raises(PropertyFailure) as exc_info:
            run_cases(prop, strategy, cases=20, name="demo")
        message = str(exc_info.value)
        assert f"{SEED_ENV}=" in message and f"{CASE_ENV}=" in message
        assert "demo" in message
        # Greedy halving must reach a minimal still-failing store.
        assert len(exc_info.value.shrunk_case.vectors) == 2

    def test_case_env_pins_single_case(self, monkeypatch):
        monkeypatch.setenv(CASE_ENV, "5")
        seen = []
        run_cases(seen.append, GridStrategy(), cases=50)
        assert len(seen) == 1
        np.testing.assert_array_equal(
            [seen[0]], [GridStrategy().generate(case_rng(base_seed(), 5))]
        )

    def test_shrinker_ignores_non_assertion_errors(self):
        """A shrink candidate that crashes differently is not a
        simplification; the shrinker must skip it, not adopt or raise."""
        strategy = VectorStoreStrategy()

        def prop(case):
            if len(case.vectors) < 4:
                raise RuntimeError("different failure mode")
            raise AssertionError("always fails at full size")

        with pytest.raises(PropertyFailure) as exc_info:
            run_cases(prop, strategy, cases=1)
        assert len(exc_info.value.shrunk_case.vectors) >= 4


class TestVectorStoreStrategy:
    def test_generates_declared_shapes(self):
        strategy = VectorStoreStrategy(dims=(3,), max_rows=10, max_queries=2)
        for index in range(20):
            case = strategy.generate(case_rng(1, index))
            assert case.dim == 3
            assert 1 <= len(case.vectors) <= 10
            assert 1 <= len(case.queries) <= 2
            assert case.vectors.dtype == np.float32

    def test_conditioned_stores_stay_finite(self):
        strategy = VectorStoreStrategy(conditioned=True)
        for index in range(50):
            case = strategy.generate(case_rng(2, index))
            assert np.isfinite(case.vectors).all(), case.note

    def test_unconditioned_stores_emit_inf_eventually(self):
        strategy = VectorStoreStrategy(conditioned=False)
        notes = ",".join(
            strategy.generate(case_rng(3, i)).note for i in range(60)
        )
        assert "inf" in notes and "huge" in notes

    def test_shrink_yields_strictly_smaller_or_simpler(self):
        strategy = VectorStoreStrategy()
        case = StoreCase(
            vectors=np.ones((8, 2), dtype=np.float32),
            queries=np.ones((4, 2), dtype=np.float32),
        )
        for candidate in strategy.shrink(case):
            simpler = (
                len(candidate.vectors) < len(case.vectors)
                or len(candidate.queries) < len(case.queries)
                or not candidate.vectors.any()
                or not candidate.queries.any()
            )
            assert simpler


class TestLabelStrategy:
    def test_generates_label_and_aliases(self):
        strategy = LabelStrategy(num_aliases=3)
        label, aliases = strategy.generate(case_rng(4, 0))
        assert isinstance(label, str) and len(label) >= 1
        assert len(aliases) == 3

    def test_draws_non_ascii_alphabets(self):
        strategy = LabelStrategy()
        labels = [strategy.generate(case_rng(5, i))[0] for i in range(40)]
        assert any(not label.isascii() for label in labels)

    def test_shrink_halves_label_then_drops_aliases(self):
        strategy = LabelStrategy()
        candidates = list(strategy.shrink(("abcdef", ["x", "y"])))
        assert ("abc", ["x", "y"]) in candidates
        assert ("abcdef", ["x"]) in candidates


class TestGridAndTuple:
    def test_grid_shrinks_toward_unit_corner(self):
        strategy = GridStrategy()
        candidates = list(
            strategy.shrink(GridCase(k=10, block_size=64, num_shards=8))
        )
        assert GridCase(k=1, block_size=64, num_shards=8) in candidates
        assert list(strategy.shrink(GridCase(1, 1, 1))) == []

    def test_tuple_strategy_shrinks_one_slot_at_a_time(self):
        strategy = TupleStrategy(GridStrategy(), GridStrategy())
        case = (GridCase(5, 1, 1), GridCase(1, 3, 1))
        for candidate in strategy.shrink(case):
            changed = sum(a != b for a, b in zip(candidate, case))
            assert changed == 1

    def test_tuple_strategy_requires_strategies(self):
        with pytest.raises(ValueError):
            TupleStrategy()
