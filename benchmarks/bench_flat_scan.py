"""Flat-scan micro-probe: the exact index against PQ and the arithmetic.

Writes ``BENCH_flat_scan.json`` at the repo root (override with ``--out``).
For each store size (1 000 / 5 000 / 50 000 rows x 64 float32, unit norm)
and batch size (1 and 32 queries), k = 30, it times one ``search`` of

- ``flat`` — :class:`FlatIndex` (float32 coarse pass + float64 re-score
  of the survivors);
- ``flat_tombstoned`` — the same store with 2 % of its rows removed;
- ``pq`` — :class:`PQIndex` ``(m=8, nbits=8)``, the paper's 8-byte index;
- ``floor`` — ``||x||^2 - 2 X q`` + ``argpartition`` in plain numpy: the
  arithmetic an exact scan cannot avoid (no exact re-score, no ranking).

The variants run round-robin inside every repetition, so host drift lands
on all of them alike; medians and quartiles are over the repetitions.

The exit code is the CI gate (``--smoke`` measures only what it needs):
at 5 000 rows, batch 1, the median ``flat`` search must not be slower
than the median ``pq`` search.  Both are measured in this one process, so
the gate asserts a shape — the exact index is not the slow one — and no
absolute time.
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
GATE = ("5000", "1")  # rows, batch


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
    batches = [1] if args.smoke else [1, 32]
    stores = {}
    for num_rows, repeats in sizes.items():
        stores[str(num_rows)] = bench_store(num_rows, batches, repeats, args.seed)
        for batch, row in stores[str(num_rows)].items():
            print(
                f"  {num_rows:6d} rows, batch {batch:>2s}: "
                + "  ".join(
                    f"{name} {stat['median_us']:9.1f}" for name, stat in row.items()
                )
                + "  (median us)"
            )
    gate = stores[GATE[0]][GATE[1]]
    flat_us, pq_us = gate["flat"]["median_us"], gate["pq"]["median_us"]
    passed = flat_us <= pq_us
    metrics = {
        "smoke": args.smoke,
        "workload": {"dim": DIM, "k": K, "seed": args.seed, "repeats": sizes},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "stores": stores,
        "gate_flat_not_slower_than_pq_5000x1": passed,
    }
    path = write_bench_json(args.out, "flat_scan", metrics)
    print(f"wrote {path}")
    print(
        f"gate: flat {flat_us:.1f} us {'<=' if passed else '>'} pq {pq_us:.1f} us "
        f"at {GATE[0]} rows, batch {GATE[1]}"
    )
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
