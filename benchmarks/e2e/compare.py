"""Compare two result files of ``run.py --out``: one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of runs of one
commit); every ratio is B / A.  A row's verdict applies the bound that
``metrics.py`` fixes for the metric:

- ``worse`` / ``better``: B's median is beyond the bound on that side;
- ``ok``: within the bound;
- ``unresolved``: A's own run-to-run spread (distance between its
  quartiles over its median) is wider than the bound, unless every run of
  B reads better than every run of A; or the two sets' host calibrations
  differ by more than CALIBRATION_GUARD, beyond which the host scaling
  the metrics already carry is not trusted.  Never "changed", never
  "unchanged".

Runs of equal workload and seed must have been given equal inputs (equal
digests) and, on the closed loops, must agree on every count metric: a
difference there is an error, not noise.  Exit status is 1 on any
``worse`` row, any such error, or a higher share of failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import COUNT_METRICS, END_TO_END  # noqa: E402

CALIBRATION_GUARD = 0.25


def load(path: Path) -> list[dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data = data.get("runs", [data])
    return data


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a: list[float], b: list[float], metric, calib_a: float, calib_b: float) -> str:
    lower = metric.better == "lower"
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    if abs(calib_b / calib_a - 1.0) > CALIBRATION_GUARD:
        return "unresolved"
    if spread(a) > metric.bound:
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        return "better" if all_better else "unresolved"
    if worse_by > metric.bound:
        return "worse"
    return "better" if worse_by < -metric.bound else "ok"


def compare(runs_a: list[dict], runs_b: list[dict]) -> tuple[list[str], list[str]]:
    """``(rows, errors)`` for two sets of run records."""
    rows, errors = [], []

    def untraced(runs, workload):
        return [r for r in runs if r["workload"] == workload and not r["trace"]]

    for workload in dict.fromkeys(run["workload"] for run in runs_a):
        a, b = untraced(runs_a, workload), untraced(runs_b, workload)
        if not a or not b:
            errors.append(f"{workload}: missing from one file")
            continue
        calib = [
            statistics.median(statistics.mean(r["info"]["calib_ms"]) for r in runs)
            for runs in (a, b)
        ]
        for metric in END_TO_END:
            values = [
                [r["metrics"][metric.name]["value"] for r in runs] for runs in (a, b)
            ]
            med_a, med_b = (statistics.median(v) for v in values)
            rows.append(
                f"{workload:18s} {metric.name:20s} A={med_a:12.4f} B={med_b:12.4f} "
                f"{metric.unit:6s} B/A={med_b / med_a:6.3f} (base A) "
                f"bound={metric.bound:.2f} spreadA={spread(values[0]):.3f}  "
                f"{verdict(values[0], values[1], metric, *calib)}"
            )
        share = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in (a, b)
        ]
        if share[1] > share[0]:
            errors.append(
                f"{workload}: failed_share rose {share[0]:.5f} -> {share[1]:.5f}"
            )
        by_seed = {r["seed"]: r for r in a}
        for run in b:
            twin = by_seed.get(run["seed"])
            if twin is None or twin["seconds"] != run["seconds"]:
                continue
            if twin["info"]["digest"] != run["info"]["digest"]:
                errors.append(f"{workload} seed {run['seed']}: input digests differ")
            elif run["info"]["loop"] == "closed":
                # An open loop's counts follow batch composition, i.e. timing.
                for name in COUNT_METRICS:
                    x, y = twin["info"]["counts"][name], run["info"]["counts"][name]
                    if x != y:
                        errors.append(
                            f"{workload} seed {run['seed']}: count {name} {x} != {y}"
                        )
    return rows, errors


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0] + "\n\nusage: compare.py A.json B.json")
        return 2
    rows, errors = compare(load(Path(argv[0])), load(Path(argv[1])))
    print("\n".join(rows))
    for error in errors:
        print(f"ERROR {error}")
    return 1 if errors or any(row.endswith(" worse") for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
