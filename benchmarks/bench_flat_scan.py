"""Flat-scan micro-probe: the exact index against PQ and the arithmetic.

Writes ``BENCH_flat_scan.json`` at the repo root (override with ``--out``).
For each store size (1 000 / 5 000 / 50 000 rows x 64 float32, unit norm)
and batch size (1 and 32 queries), k = 30, it times one ``search`` of

- ``flat`` — :class:`FlatIndex` (float32 coarse pass + float64 re-score
  of the survivors);
- ``flat_tombstoned`` — the same store with 2 % of its rows removed;
- ``pq`` — :class:`PQIndex` ``(m=8, nbits=8)``, the paper's 8-byte index
  (float32 ADC gather + float64 re-score of the survivors);
- ``floor`` — ``||x||^2 - 2 X q`` + ``argpartition`` in plain numpy: the
  arithmetic an exact scan cannot avoid (no exact re-score, no ranking).

The variants run round-robin inside every repetition, so host drift lands
on all of them alike; medians and quartiles are over the repetitions.

The exit code is the CI gate (``--smoke`` measures only what it needs),
two shapes at 5 000 rows: at batch 1 the median ``flat`` search must not
be slower than the median ``pq`` search (the exact index is not the slow
one), and at batch 32 the median ``pq`` search must stay within 2.5 x the
median ``flat`` search (ranking 8-byte codes costs about what one sgemm
over the 256-byte rows does; a float64 gather sits at 3.5 x, a scan that
re-scores or ranks the whole block far beyond).  Everything is measured in
this one process against the exact scan of the same store, so the gates
assert shapes and no absolute time — and no yardstick that an embed-path
change moves, which is why the ``bulk_pq_sharded`` kernel is gated here
and not by a search / embed ratio of a traced run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# One BLAS thread, as in benchmarks/e2e: the scan is a single sgemm and
# a pool would measure the pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from repro.index.flat import FlatIndex  # noqa: E402
from repro.index.pq import PQIndex  # noqa: E402
from tools.bench_json import write_bench_json  # noqa: E402

DIM = 64
K = 30
GATE_ROWS = "5000"
PQ_OVER_FLAT_AT_32 = 2.5


def numpy_floor(queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
    coarse = np.einsum("ij,ij->i", rows, rows) - 2.0 * (queries @ rows.T)
    return np.argpartition(coarse, K - 1, axis=1)[:, :K]


def time_round_robin(variants: dict, repeats: int) -> dict:
    """Median / quartile microseconds per call of each zero-argument
    callable, one call of every variant per repetition."""
    for call in variants.values():
        call()
        call()
    samples = {name: [] for name in variants}
    for _ in range(repeats):
        for name, call in variants.items():
            start = time.perf_counter()
            call()
            samples[name].append(time.perf_counter() - start)
    out = {}
    for name, seconds in samples.items():
        q25, q50, q75 = np.percentile(np.asarray(seconds) * 1e6, [25, 50, 75])
        out[name] = {
            "median_us": round(float(q50), 1),
            "q25_us": round(float(q25), 1),
            "q75_us": round(float(q75), 1),
        }
    return out


def bench_store(num_rows: int, batches: list[int], repeats: int, seed: int) -> dict:
    rng = np.random.default_rng(seed + num_rows)
    rows = rng.normal(size=(num_rows, DIM)).astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    flat = FlatIndex(DIM)
    flat.add(rows)
    tombstoned = FlatIndex(DIM)
    tombstoned.add(rows)
    tombstoned.remove(rng.choice(num_rows, num_rows // 50, replace=False))
    pq = PQIndex(DIM, m=8, nbits=8, seed=3)
    pq.train(rows[:5000])
    pq.add(rows)
    out = {}
    for batch in batches:
        # Typo-like queries: a stored row plus a little noise.
        queries = rows[rng.choice(num_rows, batch)] + 0.05 * rng.normal(
            size=(batch, DIM)
        )
        queries = queries.astype(np.float32)
        out[str(batch)] = time_round_robin(
            {
                "flat": lambda: flat.search(queries, K),
                "flat_tombstoned": lambda: tombstoned.search(queries, K),
                "pq": lambda: pq.search(queries, K),
                "floor": lambda: numpy_floor(queries, rows),
            },
            max(10, repeats // batch),
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(ROOT / "BENCH_flat_scan.json"))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    sizes = {5000: 300} if args.smoke else {1000: 600, 5000: 600, 50_000: 120}
    stores = {}
    for num_rows, repeats in sizes.items():
        stores[str(num_rows)] = bench_store(num_rows, [1, 32], repeats, args.seed)
        for batch, row in stores[str(num_rows)].items():
            print(
                f"  {num_rows:6d} rows, batch {batch:>2s}: "
                + "  ".join(
                    f"{name} {stat['median_us']:9.1f}" for name, stat in row.items()
                )
                + "  (median us)"
            )
    one, many = stores[GATE_ROWS]["1"], stores[GATE_ROWS]["32"]
    flat_1, pq_1 = one["flat"]["median_us"], one["pq"]["median_us"]
    flat_32, pq_32 = many["flat"]["median_us"], many["pq"]["median_us"]
    gates = {
        "gate_flat_not_slower_than_pq_5000x1": flat_1 <= pq_1,
        "gate_pq_within_2p5x_flat_5000x32": pq_32 <= PQ_OVER_FLAT_AT_32 * flat_32,
    }
    metrics = {
        "smoke": args.smoke,
        "workload": {"dim": DIM, "k": K, "seed": args.seed, "repeats": sizes},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "stores": stores,
        **gates,
    }
    path = write_bench_json(args.out, "flat_scan", metrics)
    print(f"wrote {path}")
    print(
        f"gate: flat {flat_1:.1f} us {'<=' if flat_1 <= pq_1 else '>'} "
        f"pq {pq_1:.1f} us at {GATE_ROWS} rows, batch 1"
    )
    print(
        f"gate: pq {pq_32:.1f} us = {pq_32 / flat_32:.2f} x flat {flat_32:.1f} us "
        f"(limit {PQ_OVER_FLAT_AT_32} x) at {GATE_ROWS} rows, batch 32"
    )
    return 0 if all(gates.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
