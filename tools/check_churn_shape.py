#!/usr/bin/env python
"""CI gate on a traced ``churn_closed`` record: shapes, not times.

    python3 benchmarks/e2e/run.py --workload churn_closed --seconds 2 --trace 1 --out smoke-churn.json
    python tools/check_churn_shape.py smoke-churn.json

Both checks are ratios of two medians / means taken inside one process,
so they hold on any host speed:

* the fuzzy tier is the *cheap* tier — ``router.fuzzy_us_per_routed``
  below ``embed.us_per_query + index.search_us_per_query``, what the
  same query would have cost on the ANN path;
* a remove costs what it touches — ``ingest.remove_us_p50`` below
  ``4 x ingest.add_us_p50`` (no table scan hides in a router-side drop).

Exit 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_churn_shape.py <run.py --out file>", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        metrics = {
            name: entry["value"]
            for name, entry in json.load(handle)["metrics"].items()
        }
    fuzzy = metrics["router.fuzzy_us_per_routed"]
    ann = metrics["embed.us_per_query"] + metrics["index.search_us_per_query"]
    remove = metrics["ingest.remove_us_p50"]
    add = metrics["ingest.add_us_p50"]
    checks = [
        (f"fuzzy {fuzzy:.0f} us/routed < embed + search {ann:.0f} us/query", fuzzy < ann),
        (f"remove p50 {remove:.0f} us < 4 x add p50 {add:.0f} us", remove < 4 * add),
    ]
    for text, ok in checks:
        print(("ok    " if ok else "FAIL  ") + text)
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
