"""The loops and statistics, against a fake engine on a fake clock."""

import math

import numpy as np
import pytest

import harness
from harness import PROBE_REF_S, Window


class FakeClock:
    """Reading the clock costs one tick, so spin loops make progress."""

    def __init__(self, tick: float = 1e-5) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


class FakeHandle:
    def __init__(self) -> None:
        self.done = False
        self.exception = None


class FakeEngine:
    """submit()/flush() with scripted service seconds per arrival."""

    def __init__(self, clock: FakeClock, service, max_batch_size=32, max_batch_age=0.005):
        self.clock, self.service = clock, service
        self.max_batch_size, self.max_batch_age = max_batch_size, max_batch_age
        self.pending: list[tuple[int, FakeHandle]] = []
        self.started = 0.0
        self.submitted = 0
        self.batches: list[int] = []

    def submit(self, query: str, k: int) -> FakeHandle:
        handle = FakeHandle()
        if not self.pending:
            self.started = self.clock.now
        self.pending.append((self.submitted, handle))
        self.submitted += 1
        if (
            len(self.pending) >= self.max_batch_size
            or self.clock.now - self.started >= self.max_batch_age
        ):
            self.flush()
        return handle

    def flush(self) -> int:
        batch, self.pending = self.pending, []
        self.batches.append(len(batch))
        for arrival, handle in batch:
            self.clock.now += self.service(arrival)
            handle.done = True
        return len(batch)


def drive(service, gaps, max_batch_age=0.005):
    clock = FakeClock()
    engine = FakeEngine(clock, service, max_batch_age=max_batch_age)
    count = len(gaps)
    out = harness.run_open(
        engine, ["q"] * count, gaps, [("p", range(count))], [1], 10,
        max_batch_age, probe=lambda: PROBE_REF_S, clock=clock,
    )
    return out, engine


def test_open_loop_waits_for_batch_age_then_serves():
    out, engine = drive(lambda _i: 0.001, [0.010] * 50)
    (window,) = out.windows
    assert window.lookups == 50 and engine.batches == [1] * 50
    # Gaps (10 ms) exceed the batch age (5 ms): every request waits out the
    # age alone, then pays its own service time.
    assert np.allclose(window.waits, 0.005, atol=2e-4)
    assert np.allclose(window.services, 0.001, atol=2e-4)
    assert max(out.late) < 2e-4


def test_sojourn_counts_from_due_time_when_the_engine_stalls():
    stall = 0.050
    out, _ = drive(lambda i: stall if i == 3 else 0.001, [0.010] * 12)
    (window,) = out.windows
    latency = window.latencies(scaled=False)
    # Arrival 3 is due at 40 ms and flushed at 45 ms; the flush blocks the
    # single driving thread until 95 ms, so arrivals due at 50..90 ms are
    # submitted late -- and their clock started when they were *due*.
    assert out.late[4] == pytest.approx(0.045, abs=1e-3)
    assert latency[4] >= 0.045
    assert latency[4] > 5 * latency[0]
    # The backlog drains: the last arrival is on time again.
    assert out.late[11] < 1e-3 and latency[11] < 0.008


def test_open_loop_batches_arrivals_closer_than_the_age():
    out, engine = drive(lambda _i: 0.0005, [0.001] * 64)
    assert sum(engine.batches) == 64 and max(engine.batches) > 1
    assert sum(out.flush_sizes) == 64
    assert max(out.depths) >= 1


def test_window_median_ignores_one_hiccup():
    def window(service: float) -> Window:
        return Window(
            PROBE_REF_S, PROBE_REF_S, waits=[0.0] * 200, services=[service] * 200,
            busy=200 * service, lookups=200,
        )

    windows = [window(0.001), window(0.100), window(0.001)]
    assert harness.latency_percentile(windows, 50.0) == pytest.approx(0.001)
    assert harness.latency_percentile(windows, 95.0) == pytest.approx(0.001)
    assert harness.window_median(windows, Window.lookups_per_s) == pytest.approx(1000)


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.supports(200, 95.0) and not harness.supports(199, 95.0)
    assert harness.supports(20, 50.0) and not harness.supports(19, 50.0)
    assert harness.window_count(7000) == 12 and harness.window_count(130) == 3

    def window(samples: int, service: float = 0.001) -> Window:
        return Window(
            PROBE_REF_S, PROBE_REF_S, waits=[0.0] * samples,
            services=[service] * samples,
        )

    # 199 samples cannot carry a p95; the median is fine.
    assert math.isnan(harness.latency_percentile([window(199)], 95.0))
    assert harness.latency_percentile([window(199)], 50.0) == pytest.approx(0.001)
    # Windows sized for the median are grouped until the tail is supported:
    # 12 x 50 samples give three groups of 200, and a remainder joins the last.
    small = [window(50) for _ in range(12)]
    assert [len(g) for g in harness.tail_groups(small, 95.0)] == [4, 4, 4]
    assert [len(g) for g in harness.tail_groups(small + [window(50)], 95.0)] == [4, 4, 5]
    assert [len(g) for g in harness.tail_groups(small, 50.0)] == [1] * 12
    # One slow group of three cannot own the tail.
    small[0:4] = [window(50, 0.100) for _ in range(4)]
    assert harness.latency_percentile(small, 95.0) == pytest.approx(0.001)


def test_host_factor_scales_compute_but_not_clock_waits():
    slow = Window(
        2 * PROBE_REF_S, 2 * PROBE_REF_S, waits=[0.005] * 4, services=[0.002] * 4,
        busy=0.008, lookups=4,
    )
    assert slow.factor == pytest.approx(0.5)
    assert np.allclose(slow.latencies(), 0.005 + 0.001)
    assert np.allclose(slow.latencies(scaled=False), 0.007)
    assert slow.lookups_per_s() == pytest.approx(1000)
    assert slow.lookups_per_s(scaled=False) == pytest.approx(500)


def test_slo_share_counts_failures_as_misses():
    window = Window(
        PROBE_REF_S, PROBE_REF_S, waits=[0.0] * 10,
        services=[0.001] * 8 + [0.030] * 2,
    )
    assert harness.slo_share([window]) == pytest.approx(0.8)
    assert harness.slo_share([window], failed=1) == pytest.approx(0.7)


def test_split_windows_covers_every_op_once():
    spans = harness.split_windows(1001, 12)
    assert [i for span in spans for i in span] == list(range(1001))
    assert max(map(len, spans)) - min(map(len, spans)) <= 1


def test_closed_loop_accounts_lookups_mutations_and_raised_calls():
    clock = FakeClock()

    class Op:
        def __init__(self, kind):
            self.kind = kind

    ops = [Op("lookup"), Op("mutate"), Op("lookup"), Op("lookup")] * 3

    def execute(i, op):
        clock.now += 0.002 if op.kind == "lookup" else 0.010
        if i == 2:
            raise RuntimeError("boom")
        return 4 if op.kind == "lookup" else 0

    out = harness.run_closed(ops, execute, 3, lambda: PROBE_REF_S, clock)
    assert len(out.windows) == 3
    assert [i for i, _ in out.errors] == [2]
    # The raised lookup completes nothing; it is recorded as a failure.
    assert sum(w.lookups for w in out.windows) == 4 * 8
    assert [kind for _, kind, _ in out.others].count("mutate") == 3
    assert sum(w.busy for w in out.windows) == pytest.approx(
        9 * 0.002 + 3 * 0.010, abs=1e-3
    )


def test_closed_loop_reads_the_probe_between_calls_and_charges_no_call_for_it():
    clock = FakeClock()
    speed = {"reading": PROBE_REF_S}

    def probe() -> float:
        clock.now += 0.002  # a reading takes time; it is no call's
        return speed["reading"]

    def execute(i, _op):
        if i == 100:
            speed["reading"] = 2 * PROBE_REF_S  # the host halves its speed
        clock.now += 0.002 if i >= 100 else 0.001
        return 1

    out = harness.run_closed(list(range(200)), execute, 2, probe, clock)
    fast, slow = out.windows
    # 100 calls of 1 ms (2 ms) span 0.1 s (0.2 s): a reading every 40 ms.
    assert 2 <= len(fast.probe_inside) <= 3 and 4 <= len(slow.probe_inside) <= 5
    assert fast.busy == pytest.approx(0.1, rel=0.05)
    assert slow.busy == pytest.approx(0.2, rel=0.05)
    # The slow window's own readings outvote the fast one at its start.
    assert slow.factor == pytest.approx(0.5)
    assert harness.latency_percentile(out.windows, 50.0) == pytest.approx(0.001, rel=0.05)
