"""Span bookkeeping and the self-time arithmetic behind the layer budget."""

import pytest

import tracing
from tracing import LAYERS, SpanRecorder


class Ticks:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_covered_takes_the_union_of_overlapping_children():
    assert tracing.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert tracing.covered([(0, 4), (6, 12)], 2, 10) == pytest.approx(6)
    assert tracing.covered([], 0, 10) == 0


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        ["engine.lookup_batch", 0.0, 10.0, -1, 0, None],
        ["embed.queries", 1.0, 5.0, 0, 0, {"n": 2}],
        ["index.search", 5.0, 9.0, 0, 0, {"n": 2, "rows": 100}],
        ["index.add", 6.0, 7.0, 2, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 4.0, 3.0, 1.0])


def test_layer_shares_sum_to_one_and_normalize_is_moved_out_of_engine():
    spans = [
        ["engine.lookup_batch", 0.0, 10.0, -1, 0, None],
        ["cache.get_results", 0.5, 1.0, 0, 0, {"n": 2, "hits": 1}],
        ["embed.queries", 1.0, 5.0, 0, 0, {"n": 1}],
        ["index.search", 5.0, 9.0, 0, 0, {"n": 1, "rows": 100}],
        ["ingest.apply", 10.0, 14.0, -1, 1, {"kind": "remove"}],
        ["engine.apply_mutation", 10.5, 14.0, 4, 1, None],
        ["router.label_drop", 11.0, 13.0, 5, 1, None],
    ]
    out = tracing.layer_metrics(spans, lookup_queries=2, normalize_s_per_query=0.25)
    assert sum(out[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)
    assert out["normalize.share"] == pytest.approx(0.5 / 14)
    # engine self: 1.5 (call) + 1.5 (apply_mutation) - 0.5 moved to normalize
    assert out["engine.share"] == pytest.approx(2.5 / 14)
    assert out["router.share"] == pytest.approx(2.0 / 14)
    assert out["cache.result_hit_rate"] == pytest.approx(0.5)
    assert out["index.rows_per_query"] == pytest.approx(100)
    assert out["ingest.remove_us_p50"] == pytest.approx(4e6)
    assert out["ingest.add_us_p50"] == 0.0


def test_proxies_nest_record_counts_and_uninstall_cleanly():
    clock = Ticks()

    class Index:
        def search(self, queries, k):
            clock.now += 2.0
            return [None] * len(queries)

    class Engine:
        def __init__(self):
            self.index = Index()

        def lookup_batch(self, queries, k):
            clock.now += 1.0
            return self.index.search(queries, k)

    engine = Engine()
    recorder = SpanRecorder(clock)
    recorder.install(engine, "lookup_batch", "engine.lookup_batch")
    recorder.install(
        engine.index, "search", "index.search", lambda args, _r: {"n": len(args[0])}
    )
    recorder.op_id = 7
    engine.lookup_batch(["a", "b", "c"], 10)
    outer, inner = recorder.spans
    assert outer[:5] == ["engine.lookup_batch", 0.0, 3.0, -1, 7]
    assert inner[:5] == ["index.search", 1.0, 3.0, 0, 7]
    assert inner[tracing.EXTRA] == {"n": 3}
    recorder.uninstall()
    assert "search" not in vars(engine.index) and "lookup_batch" not in vars(engine)
    engine.lookup_batch(["a"], 10)
    assert len(recorder.spans) == 2


def test_a_raising_call_still_closes_its_span():
    recorder = SpanRecorder(Ticks())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("engine.flush", boom)()
    assert recorder.spans[0][tracing.END] == 0.0 and recorder._stack == []
