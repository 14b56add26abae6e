"""Tests for the experiment harness."""

from types import SimpleNamespace

import pytest

from repro.annotation.bbw import BbwAnnotator
from repro.annotation.doser import DoSeRDisambiguator
from repro.annotation.katara import KataraRepairer
from repro.evaluation.harness import (
    AnnotationRun,
    run_cea_system,
    run_cta_system,
    run_disambiguation,
    run_repair,
)
from repro.evaluation.metrics import PRF
from repro.lookup import base as lookup_base
from repro.lookup.elastic import ElasticLookup


@pytest.fixture(scope="module")
def elastic(small_kg):
    return ElasticLookup.build(small_kg)


class TestRuns:
    def test_cea_run_fields(self, elastic, small_dataset, small_kg):
        run = run_cea_system(BbwAnnotator(elastic), small_dataset, small_kg)
        assert run.task == "CEA"
        assert run.system == "bbw"
        assert run.lookup_name == "elastic"
        assert run.lookup_seconds > 0
        assert run.queries > 0
        assert 0.0 <= run.f_score <= 1.0

    def test_cta_run(self, elastic, small_dataset, small_kg):
        run = run_cta_system(BbwAnnotator(elastic), small_dataset, small_kg)
        assert run.task == "CTA"
        assert run.f_score > 0.5

    def test_disambiguation_run(self, elastic, small_dataset, small_kg):
        run = run_disambiguation(
            DoSeRDisambiguator(elastic), small_dataset, small_kg
        )
        assert run.task == "EA"
        assert run.f_score > 0.5

    def test_repair_run(self, elastic, small_dataset, small_kg):
        run = run_repair(KataraRepairer(elastic), small_dataset, small_kg)
        assert run.task == "DR"
        assert 0.0 <= run.f_score <= 1.0

    def test_timers_reset_between_runs(
        self, elastic, small_dataset, small_kg, monkeypatch
    ):
        """Each run re-measures from zero: over an injected clock that
        moves only inside lookups, the second run's lookup time is the
        clock's advance during that run, exactly (not cumulative)."""
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(
            lookup_base, "time", SimpleNamespace(perf_counter=lambda: clock.now)
        )
        serve = elastic._lookup_batch

        def timed_serve(queries, k):
            clock.now += 0.25  # a binary fraction: the sums stay exact
            return serve(queries, k)

        monkeypatch.setattr(elastic, "_lookup_batch", timed_serve)
        first = run_cea_system(BbwAnnotator(elastic), small_dataset, small_kg)
        assert first.lookup_seconds == clock.now > 0
        started = clock.now
        second = run_cea_system(BbwAnnotator(elastic), small_dataset, small_kg)
        assert second.lookup_seconds == clock.now - started
        assert second.lookup_seconds == 0.25 * second.queries


class TestSpeedup:
    def test_speedup_computation(self):
        fast = AnnotationRun("CEA", "s", "a", PRF(1, 1, 1), 0.5, 10)
        slow = AnnotationRun("CEA", "s", "b", PRF(1, 1, 1), 5.0, 10)
        assert fast.speedup_over(slow) == pytest.approx(10.0)

    def test_zero_time_is_infinite(self):
        instant = AnnotationRun("CEA", "s", "a", PRF(1, 1, 1), 0.0, 10)
        slow = AnnotationRun("CEA", "s", "b", PRF(1, 1, 1), 5.0, 10)
        assert instant.speedup_over(slow) == float("inf")
