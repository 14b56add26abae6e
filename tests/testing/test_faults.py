"""Tests for tests.support.faults (FaultPlan grammar and hooks)."""

import time

import numpy as np
import pytest

from tests.support.faults import FaultInjected, FaultPlan, FaultSpec, QueryPoison


class TestFaultSpec:
    def test_wildcards_match_everything(self):
        spec = FaultSpec(kind="raise")
        assert spec.matches(0, 0) and spec.matches(7, 99)

    def test_pinned_shard_and_call(self):
        spec = FaultSpec(kind="raise", shard=1, at_call=2)
        assert spec.matches(1, 2)
        assert not spec.matches(1, 3)
        assert not spec.matches(0, 2)

    def test_drop_matches_all_later_calls(self):
        spec = FaultSpec(kind="drop", shard=0, at_call=2)
        assert not spec.matches(0, 1)
        assert spec.matches(0, 2) and spec.matches(0, 50)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(kind="raise", shard=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind="delay", arg=-0.5)


class TestFaultPlanParse:
    def test_full_grammar(self):
        plan = FaultPlan.parse("s0:c2:raise, *:c1:delay:0.25, s3:*:drop")
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["raise", "delay", "drop"]
        assert plan.specs[0].shard == 0 and plan.specs[0].at_call == 2
        assert plan.specs[1].shard is None and plan.specs[1].arg == 0.25
        assert plan.specs[2].at_call is None

    @pytest.mark.parametrize(
        "bad",
        ["", "s0:c1", "x0:c1:raise", "s0:k1:raise", "s0:c1:explode"],
    )
    def test_rejects_malformed_clauses(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


class TestFaultPlanHooks:
    def test_before_counts_and_raises_once(self):
        plan = FaultPlan.parse("s0:c1:raise")
        plan.before(0)  # call 0: clean
        with pytest.raises(FaultInjected):
            plan.before(0)  # call 1: fault
        plan.before(0)  # call 2: clean again (not a drop)
        assert plan.calls(0) == 3
        assert plan.fired == 1

    def test_drop_keeps_failing(self):
        plan = FaultPlan.parse("s1:c0:drop")
        for _ in range(3):
            with pytest.raises(FaultInjected):
                plan.before(1)
        plan.before(0)  # other shards unaffected
        assert plan.fired == 3

    def test_delay_sleeps(self):
        plan = FaultPlan.parse("*:*:delay:0.03")
        started = time.monotonic()
        plan.before(0)
        assert time.monotonic() - started >= 0.025

    def test_transform_mispairs_distances(self):
        plan = FaultPlan.parse("s0:*:corrupt")
        plan.before(0)
        ids = np.array([[1, 2, 3]])
        distances = np.array([[1.0, 2.0, 3.0]])
        out_ids, out_d = plan.transform(0, ids, distances)
        np.testing.assert_array_equal(out_ids, ids)
        np.testing.assert_array_equal(out_d, [[3.0, 2.0, 1.0]])
        assert plan.fired == 1

    def test_transform_passthrough_for_other_shards(self):
        plan = FaultPlan.parse("s0:*:corrupt")
        plan.before(1)
        ids = np.array([[1]])
        distances = np.array([[1.0]])
        out_ids, out_d = plan.transform(1, ids, distances)
        assert out_ids is ids and out_d is distances

    def test_reset_zeroes_counters(self):
        plan = FaultPlan.parse("*:*:raise")
        with pytest.raises(FaultInjected):
            plan.before(0)
        plan.reset()
        assert plan.calls(0) == 0 and plan.fired == 0


class TestQueryPoison:
    def test_raises_only_when_poisoned_query_present(self):
        poison = QueryPoison(["bad"])
        poison(["good", "fine"])
        assert poison.fired == 0
        with pytest.raises(FaultInjected, match="bad"):
            poison(["good", "bad"])
        assert poison.fired == 1

    def test_delay_kind_stalls_without_raising(self):
        poison = QueryPoison(["slow"], kind="delay", delay=0.03)
        started = time.monotonic()
        poison(["slow"])
        assert time.monotonic() - started >= 0.025

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            QueryPoison(["q"], kind="corrupt")
