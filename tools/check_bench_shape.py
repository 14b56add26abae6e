#!/usr/bin/env python
"""CI gate on a traced ``benchmarks/e2e/run.py`` record: shapes, not times.

    python3 benchmarks/e2e/run.py --workload churn_closed --seconds 2 --trace 1 --out smoke-churn.json
    python tools/check_bench_shape.py smoke-churn.json

Every check is a ratio of two medians / means taken inside one process,
so it holds on any host speed.  The record's workload name picks them:

``churn_closed``

* the fuzzy tier is the *cheap* tier — ``router.fuzzy_us_per_routed``
  below ``embed.us_per_query + index.search_us_per_query``, what the
  same query would have cost on the ANN path;
* a remove costs what it touches — ``ingest.remove_us_p50`` below
  ``4 x ingest.add_us_p50`` (no table scan hides in a router-side drop).

``bulk_pq_sharded``

* scanning 8-byte codes for 32 queries costs a few embeds of the same 32
  strings, not many — ``index.search_us_per_call`` below ``4.5 x
  embed.us_per_call`` (a top-k selection that sorts the whole block for
  a tie at the cut sits at 6.5-7.8 x).

Exit 0 when every check holds, 1 otherwise, 2 for a record of a workload
with no checks.
"""

from __future__ import annotations

import json
import sys


def churn_closed(metrics: dict) -> list[tuple[str, bool]]:
    fuzzy = metrics["router.fuzzy_us_per_routed"]
    ann = metrics["embed.us_per_query"] + metrics["index.search_us_per_query"]
    remove = metrics["ingest.remove_us_p50"]
    add = metrics["ingest.add_us_p50"]
    return [
        (f"fuzzy {fuzzy:.0f} us/routed < embed + search {ann:.0f} us/query", fuzzy < ann),
        (f"remove p50 {remove:.0f} us < 4 x add p50 {add:.0f} us", remove < 4 * add),
    ]


def bulk_pq_sharded(metrics: dict) -> list[tuple[str, bool]]:
    search = metrics["index.search_us_per_call"]
    embed = metrics["embed.us_per_call"]
    return [
        (f"search {search:.0f} us/call < 4.5 x embed {embed:.0f} us/call", search < 4.5 * embed),
    ]


CHECKS = {"churn_closed": churn_closed, "bulk_pq_sharded": bulk_pq_sharded}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_bench_shape.py <run.py --out file>", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        record = json.load(handle)
    if record["workload"] not in CHECKS:
        print(f"no shape checks for workload {record['workload']!r}", file=sys.stderr)
        return 2
    checks = CHECKS[record["workload"]](
        {name: entry["value"] for name, entry in record["metrics"].items()}
    )
    for text, ok in checks:
        print(("ok    " if ok else "FAIL  ") + text)
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
