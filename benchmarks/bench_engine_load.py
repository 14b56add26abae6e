"""Engine-under-load probe: what `LookupEngine.submit` costs as the rate rises.

Writes ``BENCH_engine_load.json`` at the repo root (override with ``--out``).
``benchmarks/e2e``'s ``trace_open`` offers 200 and 400 arrivals per second,
where its engine is a few percent busy; this probe takes the same engine,
index and query mix (imported from ``benchmarks/e2e/workloads.py``, which it
does not edit) and sweeps the offered Poisson rate from 200 per second to
past saturation, under two kinds of driver:

- ``single`` -- one thread that submits on schedule, exactly the loop of
  ``benchmarks/e2e/harness.run_open`` (it spins between arrivals and calls
  ``flush()`` once its oldest unresolved handle is ``max_batch_age`` old);
- ``four_threads`` -- the same loop on four threads, each with its own
  Poisson schedule at a quarter of the rate, sleeping (not spinning: four
  spinners would fight over the interpreter lock) between arrivals.

Per rate it reports the sojourn p50 / p95 (completion minus *due* time, so
a stall delays the arrivals behind it), the mean batch (arrivals per
``flushes`` of ``serving_stats()``; per ``lookup_batch`` call where
an older ``src`` lacks that key), and the achieved rate; per driver the
*knee*: the highest offered rate whose p95 stays within 25 ms
(``benchmarks/e2e``'s limit) while the achieved rate stays within 5 % of
the rate the schedule offered (no growing backlog).  ``service_p50_us`` is
the p50 of a lone ``submit`` of the same mix on the otherwise idle engine,
1 ms apart.

Every repetition is a fresh process (``--worker``); with ``--parent-src``
each repetition runs that tree's ``src/`` and this one in alternating
order, and medians and quartiles are over the repetitions.

The exit code is the CI gate (``--smoke``: lowest and highest rate only),
two ratios inside one process: the single driver's sojourn p50 at the
lowest rate is under 2 x ``service_p50_us`` (nobody waits on an idle
engine), and four submitter threads at the highest rate get a mean batch
above 1 (load, not a timer, makes the batches).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Sequence
from pathlib import Path

# One BLAS thread, as in benchmarks/e2e: a pool would measure the pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tools.bench_json import write_bench_json  # noqa: E402

RATES = (
    200, 400, 800, 1600, 2400, 3200, 4000, 4800, 5600, 6400, 8000, 9600, 12800,
    16000, 20000,
)
SMOKE_RATES = (200, 6400)
SECONDS_PER_RATE = 2.0
SLO_S = 0.025
#: A rate is kept up with when this share of it is achieved.
KEEPS_UP = 0.95
THREADS = 4
#: Longest nap of a sleeping driver that still has unresolved handles.
POLL_S = 0.0002
SERVICE_SAMPLES = 400


def drive(
    engine,
    queries: Sequence[str],
    dues: Sequence[float],
    k: int,
    spin: bool,
    done_at: list[float],
    slots: Sequence[int],
) -> None:
    """Submit ``queries[i]`` at ``dues[i]`` for ``i`` in ``slots``; stamp each
    completion into ``done_at[i]`` when its handle turns ``done``."""
    clock = time.perf_counter
    max_batch_age = engine.max_batch_age
    pending: list[tuple[int, float, object]] = []
    position = 0
    while position < len(slots) or pending:
        now = clock()
        next_due = dues[slots[position]] if position < len(slots) else math.inf
        if now >= next_due:
            i = slots[position]
            pending.append((i, now, engine.submit(queries[i], k)))
            position += 1
        else:
            if pending and now - pending[0][1] >= max_batch_age:
                engine.flush()
            if not spin:
                nap = next_due - now
                if pending:
                    nap = min(nap, POLL_S)
                if nap > 0:
                    time.sleep(nap)
        if pending:
            end = clock()
            waiting = []
            for entry in pending:
                if entry[2].done:
                    done_at[entry[0]] = end
                else:
                    waiting.append(entry)
            pending = waiting


def batches_served(engine) -> int:
    """Batches of submitted queries the engine has served so far."""
    stats = engine.serving_stats()
    if "flushes" in stats:
        return stats["flushes"]
    # An older src: every lookup_batch call is one window of query_time.
    return engine.query_time.count


def run_rate(engine, queries, rate: float, threads: int, seed: int, k: int) -> dict:
    """One phase at one offered rate; the engine's cache starts empty."""
    rng = np.random.default_rng(seed)
    count = len(queries)
    slots = [list(range(t, count, threads)) for t in range(threads)]
    gaps = rng.exponential(threads / rate, size=count)
    offsets = [0.0] * count
    for mine in slots:
        at = 0.0
        for i in mine:
            at += gaps[i]
            offsets[i] = at
    engine.cache.clear()
    batches_before = batches_served(engine)
    done_at = [math.nan] * count
    origin = time.perf_counter() + 0.01
    dues = [origin + offset for offset in offsets]
    if threads == 1:
        drive(engine, queries, dues, k, True, done_at, slots[0])
    else:
        pool = [
            threading.Thread(
                target=drive, args=(engine, queries, dues, k, False, done_at, mine)
            )
            for mine in slots
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    batches = batches_served(engine) - batches_before
    sojourns = np.asarray(done_at) - np.asarray(dues)
    p50, p95 = np.percentile(sojourns, [50, 95])
    return {
        "arrivals": count,
        "sojourn_p50_us": float(p50) * 1e6,
        "sojourn_p95_us": float(p95) * 1e6,
        # Every arrival is served in exactly one batch.
        "batch_mean": count / batches,
        # What the seeded schedule offered, and what was completed, both
        # from the first due time.
        "offered_per_s": count / (max(dues) - min(dues)),
        "achieved_per_s": count / (max(done_at) - min(dues)),
    }


def service_p50_us(engine, queries, k: int) -> float:
    """p50 of a lone ``submit`` (served, however the src does it) on an
    otherwise idle engine, calls 1 ms apart as arrivals are."""
    engine.cache.clear()
    clock = time.perf_counter
    samples = []
    for query in queries[:SERVICE_SAMPLES]:
        due = clock() + 0.001
        while clock() < due:
            pass
        start = clock()
        handle = engine.submit(query, k)
        if not handle.done:
            engine.flush()
        samples.append(clock() - start)
    return float(np.percentile(samples, 50)) * 1e6


def knee(rows: dict[str, dict]) -> int:
    """Highest offered rate (0: none) within the limit and kept up with."""
    best = 0
    for rate, row in rows.items():
        if (
            row["sojourn_p95_us"] <= SLO_S * 1e6
            and row["achieved_per_s"] >= KEEPS_UP * row["offered_per_s"]
        ):
            best = max(best, int(rate))
    return best


def worker(src: Path, rates: Sequence[int], seconds: float, seed: int) -> dict:
    """One full sweep in this process, against the ``repro`` under ``src``."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import K, WORKLOADS, index_kg, train_pipeline

    workload = WORKLOADS["trace_open"]
    kg = index_kg(workload)
    pipeline = train_pipeline()
    engine = workload.build_engine(pipeline, workload.build_index(pipeline, kg))
    try:
        labels = [e.label for e in kg.entities()][:64]
        engine.lookup_batch(labels, K)
        for label in labels:
            engine.lookup_batch([label[:-1] + "x"], K)
        # trace_open's mix (its plan is 320 arrivals per second of run length).
        need = int(max(rates) * seconds)
        plan = workload.plan(kg, seed, math.ceil(need / 320))
        mix = [op.queries[0] for op in plan.ops]
        out: dict = {"service_p50_us": service_p50_us(engine, mix, K), "drivers": {}}
        for name, threads in (("single", 1), ("four_threads", THREADS)):
            rows = {}
            for rate in rates:
                rows[str(rate)] = run_rate(
                    engine, mix[: int(rate * seconds)], rate, threads, seed + rate, K
                )
            out["drivers"][name] = {"rates": rows, "knee_per_s": knee(rows)}
        return out
    finally:
        engine.close()


def spread(values: Sequence[float]) -> dict:
    q25, q50, q75 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {
        "median": round(float(q50), 2),
        "q25": round(float(q25), 2),
        "q75": round(float(q75), 2),
    }


def summarize(runs: Sequence[dict]) -> dict:
    """Median and quartiles over the repetitions of one side."""
    out: dict = {
        "service_p50_us": spread([r["service_p50_us"] for r in runs]),
        "drivers": {},
    }
    for name in runs[0]["drivers"]:
        rates = {}
        for rate in runs[0]["drivers"][name]["rates"]:
            rows = [r["drivers"][name]["rates"][rate] for r in runs]
            rates[rate] = {
                key: spread([row[key] for row in rows])
                for key in rows[0]
                if key != "arrivals"
            }
            rates[rate]["arrivals"] = rows[0]["arrivals"]
        out["drivers"][name] = {
            "knee_per_s": spread([r["drivers"][name]["knee_per_s"] for r in runs]),
            "rates": rates,
        }
    return out


def print_side(label: str, side: dict) -> None:
    print(f"== {label}: service p50 {side['service_p50_us']['median']:.1f} us")
    for name, driver in side["drivers"].items():
        print(f"  {name}: knee {driver['knee_per_s']['median']:.0f} /s")
        for rate, row in driver["rates"].items():
            print(
                f"    {int(rate):5d}/s  p50 {row['sojourn_p50_us']['median']:10.1f} us"
                f"  p95 {row['sojourn_p95_us']['median']:10.1f} us"
                f"  batch {row['batch_mean']['median']:5.2f}"
                f"  achieved {row['achieved_per_s']['median']:7.0f} /s"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(ROOT / "BENCH_engine_load.json"))
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--parent-src", type=Path,
        help="also measure this src/ tree, alternating with this repo's",
    )
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    rates = SMOKE_RATES if args.smoke else RATES
    seconds = 1.0 if args.smoke else SECONDS_PER_RATE
    if args.worker is not None:
        record = worker(args.worker, rates, seconds, args.seed)
        Path(args.out).write_text(json.dumps(record), encoding="utf-8")
        return 0

    sides = {"change": ROOT / "src"}
    if args.parent_src is not None:
        sides["parent"] = args.parent_src.resolve()
    repeats = 1 if args.smoke else args.repeats
    runs: dict[str, list[dict]] = {label: [] for label in sides}
    with tempfile.TemporaryDirectory() as scratch:
        for rep in range(repeats):
            order = list(sides) if rep % 2 == 0 else list(reversed(sides))
            for label in order:
                path = Path(scratch) / "run.json"
                command = [
                    sys.executable, __file__, "--worker", str(sides[label]),
                    "--out", str(path), "--seed", str(args.seed + rep),
                ]
                if args.smoke:
                    command.append("--smoke")
                subprocess.run(command, check=True)
                runs[label].append(json.loads(path.read_text(encoding="utf-8")))
    summary = {label: summarize(side) for label, side in runs.items()}
    for label, side in summary.items():
        print_side(label, side)

    change = summary["change"]
    lowest, highest = str(rates[0]), str(rates[-1])
    idle_p50 = change["drivers"]["single"]["rates"][lowest]["sojourn_p50_us"]["median"]
    service = change["service_p50_us"]["median"]
    loaded = change["drivers"]["four_threads"]["rates"][highest]["batch_mean"]["median"]
    gates = {
        "gate_idle_sojourn_under_2x_service": idle_p50 < 2.0 * service,
        "gate_load_makes_batches": loaded > 1.0,
    }
    metrics = {
        "smoke": args.smoke,
        "workload": {
            "engine": "benchmarks/e2e trace_open", "seed": args.seed,
            "rates_per_s": list(rates), "seconds_per_rate": seconds,
            "repeats": repeats, "slo_ms": SLO_S * 1e3, "keeps_up": KEEPS_UP,
            "threads": THREADS,
        },
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        **summary,
        **gates,
    }
    path = write_bench_json(args.out, "engine_load", metrics)
    print(f"wrote {path}")
    print(
        f"gate: sojourn p50 at {lowest}/s {idle_p50:.1f} us "
        f"{'<' if gates['gate_idle_sojourn_under_2x_service'] else '>='} "
        f"2 x service p50 {service:.1f} us"
    )
    print(
        f"gate: four threads at {highest}/s, mean batch {loaded:.2f} "
        f"{'>' if gates['gate_load_makes_batches'] else '<='} 1"
    )
    return 0 if all(gates.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
