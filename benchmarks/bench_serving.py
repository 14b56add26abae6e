"""Serving-path benchmark: blockwise scans, shard scaling, cache hit curves.

Writes ``BENCH_serving.json`` at the repo root (override with ``--out``).
Four measurement families, matching the serving engine's design levers:

1. **Scan throughput** — the pre-blockwise flat scan materialised the full
   ``(num_queries, ntotal)`` float64 distance matrix; the streaming scan
   caps the working set at ``(num_queries, block)``.  Both are timed on
   the same workload.
2. **PQ ADC kernels** — the legacy per-subquantizer fancy-index
   accumulation against the transposed-LUT contiguous-gather kernel
   (``ProductQuantizer.scan_codes``), both inside the same blockwise
   top-k scan; bit-identical ids *and* distances are asserted.
3. **Shard scaling** — :class:`ShardedIndex` over 1/2/4/8 flat shards on
   both executors (``inline`` and ``process``), reported as speedup
   against the full-materialisation baseline (the paper-style
   single-shard scan) plus per-shard wall seconds from
   ``health_stats``.  Result equality with the unsharded scan is
   asserted, not assumed.  Shard scaling is executor- and core-count
   dependent, which is why every row records ``cpu_count`` and the
   executor it ran on: on a 1-CPU host neither executor can beat the
   single-shard scan, and the process pool additionally pays IPC.
   (The checked-in ``BENCH_serving.json`` predates the removal of the
   ``thread`` executor and still carries its rows.)
4. **Cache hit curves** — LRU hit rate of :class:`QueryCache` under a
   Zipf-skewed query stream, across cache capacities.

``--smoke`` shrinks the workload to a few seconds of CI time; the checked
in ``BENCH_serving.json`` comes from a full run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# Pin BLAS pools before numpy loads: shard fan-out supplies the
# parallelism here, and nested BLAS threading only adds contention.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from repro.index.flat import FlatIndex  # noqa: E402
from repro.index.pq import PQIndex  # noqa: E402
from repro.index.sharded import ShardedIndex  # noqa: E402
from repro.index.topk import (  # noqa: E402
    auto_block_size,
    block_topk,
    blockwise_topk,
)
from repro.lookup.cache import QueryCache  # noqa: E402
from tools.bench_json import write_bench_json  # noqa: E402


def timed(fn, repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall-clock seconds and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def full_scan(data: np.ndarray, queries: np.ndarray, k: int):
    """The pre-blockwise reference: materialise every pairwise distance.

    This reproduces the old ``FlatIndex.search`` memory profile — one
    ``(num_queries, ntotal)`` float64 matrix — and is the "single-shard
    flat scan" baseline the shard-scaling numbers are measured against.
    """
    a = queries.astype(np.float64)
    b = data.astype(np.float64)
    d = (
        (a * a).sum(axis=1)[:, None]
        - 2.0 * (a @ b.T)
        + (b * b).sum(axis=1)[None, :]
    )
    np.maximum(d, 0.0, out=d)
    return block_topk(d, k)


def bench_scans(data, queries, k, block_sizes, repeats):
    """Time the full-materialisation scan against blockwise scans."""
    nq = len(queries)
    full_s, (ref_ids, _) = timed(lambda: full_scan(data, queries, k), repeats)
    scans = {
        "full_materialization": {
            "seconds": full_s,
            "queries_per_sec": nq / full_s,
        }
    }
    shard_ref_ids = ref_ids
    for block in block_sizes:
        index = FlatIndex(data.shape[1], block_size=block)
        index.add(data)
        sec, result = timed(lambda: index.search(queries, k), repeats)
        assert np.array_equal(result.ids, ref_ids), (
            f"blockwise scan (block={block}) diverged from full scan"
        )
        scans[f"blockwise_{block}"] = {
            "seconds": sec,
            "queries_per_sec": nq / sec,
        }
    # The cache-budget heuristic (block_size=None): the largest
    # power-of-two block whose score tile stays inside the LLC budget —
    # this is what fixed the blockwise-8192 regression at nq=256.
    index = FlatIndex(data.shape[1])
    index.add(data)
    sec, result = timed(lambda: index.search(queries, k), repeats)
    assert np.array_equal(result.ids, ref_ids), (
        "auto-block scan diverged from full scan"
    )
    scans["blockwise_auto"] = {
        "seconds": sec,
        "queries_per_sec": nq / sec,
        "block_size": auto_block_size(nq),
    }
    return scans, shard_ref_ids, full_s


def legacy_pq_block_scan(index, queries, k):
    """The pre-PR 6 ADC kernel inside the same blockwise top-k scan.

    Per block it fancy-indexes ``tables[:, j, codes[:, j]]`` for each
    subquantizer — one mapiter-driven gather per (query, row) element —
    which is the per-subquantizer accumulation the transposed-LUT
    ``scan_codes`` kernel replaced.  Summation order over ``j`` is
    identical, so the two kernels must agree bit-for-bit.
    """
    tables = index.pq.distance_tables(queries)
    codes = index.codes

    def score(start, stop):
        block = codes[start:stop]
        out = np.zeros((len(queries), len(block)), dtype=np.float64)  # repro: noqa[REP102]
        for j in range(index.pq.m):
            out += tables[:, j, block[:, j]]
        return out

    ids, distances = blockwise_topk(
        score, len(codes), k, len(queries), block_size=index.block_size
    )
    return ids, distances


def bench_pq_scans(data, queries, k, repeats, m=8, nbits=8, seed=3):
    """Legacy fancy-index ADC vs the transposed-LUT gather kernel."""
    index = PQIndex(data.shape[1], m=m, nbits=nbits, seed=seed)
    index.train(data[: min(len(data), 20_000)])
    index.add(data)
    nq = len(queries)
    legacy_s, (legacy_ids, legacy_d) = timed(
        lambda: legacy_pq_block_scan(index, queries, k), repeats
    )
    new_s, result = timed(lambda: index.search(queries, k), repeats)
    assert np.array_equal(result.ids, legacy_ids), (
        "transposed-LUT ADC kernel diverged from the legacy kernel"
    )
    assert np.array_equal(result.distances, legacy_d), (
        "transposed-LUT ADC distances diverged from the legacy kernel"
    )
    return {
        "m": m,
        "nbits": nbits,
        "legacy_fancy_index": {
            "seconds": legacy_s,
            "queries_per_sec": nq / legacy_s,
        },
        "transposed_lut_gather": {
            "seconds": new_s,
            "queries_per_sec": nq / new_s,
        },
        "speedup": legacy_s / new_s,
    }


def bench_shards(
    data, queries, k, shard_counts, repeats, ref_ids, full_s, executors
):
    """Time ShardedIndex fan-out per executor, checking scan equality.

    Each row carries the per-shard wall seconds accumulated by
    ``health_stats`` across the timed repeats, so a lopsided shard (or a
    worker paying IPC) is visible in the checked-in JSON, not just the
    aggregate.
    """
    out = {}
    for executor in executors:
        rows = {}
        for num_shards in shard_counts:
            with ShardedIndex(
                data.shape[1], num_shards, executor=executor
            ) as index:
                index.add(data)
                index.search(queries[:4], k)  # spin up the worker pool
                baseline = index.health_stats()
                sec, result = timed(
                    lambda: index.search(queries, k), repeats
                )
                health = index.health_stats()
            assert np.array_equal(result.ids, ref_ids), (
                f"{num_shards}-shard {executor} scan diverged from flat"
            )
            shard_seconds = [
                round(
                    (after["seconds"] - before["seconds"]) / repeats, 6
                )
                for after, before in zip(
                    health["shards"], baseline["shards"]
                )
            ]
            rows[str(num_shards)] = {
                "seconds": sec,
                "queries_per_sec": len(queries) / sec,
                "speedup_vs_full_scan": full_s / sec,
                "mean_shard_seconds_per_search": shard_seconds,
            }
        out[executor] = rows
    return out


def bench_cache(capacities, num_queries, vocab, zipf_a, dim, seed):
    """LRU hit rate under a Zipf-skewed stream, per cache capacity."""
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(zipf_a, size=num_queries)
    ranks = np.minimum(ranks, vocab) - 1
    vector = np.zeros(dim, dtype=np.float32)
    curves = {}
    for capacity in capacities:
        cache = QueryCache(capacity)
        for r in ranks:
            query = f"entity-{r}"
            if cache.get_embedding(query) is None:
                cache.put_embedding(query, vector)
        curves[str(capacity)] = {
            "hit_rate": cache.stats.hit_rate,
            "evictions": cache.stats.evictions,
        }
    return curves


def main(argv=None) -> int:
    """Run the serving benchmark and write BENCH_serving.json."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / "BENCH_serving.json",
        help="output JSON path",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    if args.smoke:
        n, dim, nq, repeats = 4000, 64, 32, 1
        block_sizes = [1024, 4096]
        cache_queries, vocab = 2000, 500
    else:
        n, dim, nq, repeats = 50_000, 64, 256, 3
        block_sizes = [1024, 4096, 8192]
        cache_queries, vocab = 20_000, 5_000
    k = 10
    shard_counts = [1, 2, 4, 8]

    rng = np.random.default_rng(args.seed)
    data = rng.normal(size=(n, dim)).astype(np.float32)
    queries = rng.normal(size=(nq, dim)).astype(np.float32)

    cpu_count = os.cpu_count() or 1
    executors = ["inline", "process"]
    print(
        f"workload: {n} vectors x {dim}d, {nq} queries, k={k} "
        f"(cpu_count={cpu_count}, executors={executors})"
    )
    scans, ref_ids, full_s = bench_scans(data, queries, k, block_sizes, repeats)
    for name, row in scans.items():
        print(f"  scan {name:24s} {row['seconds'] * 1e3:8.1f} ms")
    pq_scans = bench_pq_scans(data, queries, k, repeats)
    print(
        f"  pq adc legacy {pq_scans['legacy_fancy_index']['seconds'] * 1e3:8.1f} ms"
        f" -> gather {pq_scans['transposed_lut_gather']['seconds'] * 1e3:8.1f} ms"
        f" ({pq_scans['speedup']:.2f}x)"
    )
    shards = bench_shards(
        data, queries, k, shard_counts, repeats, ref_ids, full_s, executors
    )
    for executor, rows in shards.items():
        for num, row in rows.items():
            print(
                f"  {executor:7s} shards={num:3s} "
                f"{row['seconds'] * 1e3:8.1f} ms "
                f"({row['speedup_vs_full_scan']:.2f}x vs full scan)"
            )
    cache_curves = bench_cache(
        [64, 256, 1024, 4096], cache_queries, vocab, 1.3, dim, args.seed
    )
    for cap, row in cache_curves.items():
        print(f"  cache cap={cap:5s} hit_rate={row['hit_rate']:.3f}")

    metrics = {
        "smoke": args.smoke,
        "workload": {
            "num_vectors": n,
            "dim": dim,
            "num_queries": nq,
            "k": k,
            "seed": args.seed,
            "repeats": repeats,
        },
        "cpu_count": cpu_count,
        "executors_measured": executors,
        "scan_throughput": scans,
        "pq_adc_kernels": pq_scans,
        "shard_scaling": shards,
        "cache_hit_rates": cache_curves,
        "results_identical_across_variants": True,
    }
    path = write_bench_json(args.out, "serving", metrics)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
