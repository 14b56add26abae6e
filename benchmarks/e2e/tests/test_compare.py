"""compare.py: bounds per (metric, workload), unresolved, count errors."""

import copy

import compare
from metrics import COUNT_METRICS, END_TO_END

BASE = {
    "setup_s": 2.0, "lookups_per_s": 1000.0, "latency_p50_us": 900.0,
    "latency_p95_us": 1200.0, "recall_at_10": 0.6, "index_bytes_per_row": 256.0,
}
UNITS = {m.name: m.unit for m in END_TO_END}


def run(seed=1, workload="single_ann_small", calib=0.9, failed=0, **changed):
    values = {**BASE, **changed}
    return {
        "workload": workload, "seed": seed, "seconds": 10.0, "trace": 0,
        "correct": not failed, "attempted": 1000, "failed": failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in values.items()},
        "info": {
            "calib_ms": [calib, calib], "digest": f"d{seed}",
            "loop": "open" if workload == "trace_open" else "closed",
            "counts": dict.fromkeys(COUNT_METRICS, 1.0),
        },
    }


def verdicts(rows):
    return {row.split()[1]: row.split()[-1] for row in rows}


def test_same_runs_are_ok_and_exit_zero(tmp_path):
    runs = [run(seed) for seed in (1, 2, 3)]
    rows, errors = compare.compare(runs, copy.deepcopy(runs))
    assert not errors and set(verdicts(rows).values()) == {"ok"}
    path = tmp_path / "a.json"
    path.write_text(__import__("json").dumps({"runs": runs}))
    assert compare.main([str(path), str(path)]) == 0


def test_worse_and_better_follow_the_metrics_direction_and_bound():
    bound = {m.name: m.bound for m in END_TO_END}
    a = [run(seed) for seed in (1, 2, 3)]
    b = [
        run(
            seed,
            latency_p50_us=900.0 * (1 + bound["latency_p50_us"] + 0.05),
            lookups_per_s=1000.0 * (1 + bound["lookups_per_s"] + 0.05),
            latency_p95_us=1200.0 * (1 + bound["latency_p95_us"] - 0.05),
            recall_at_10=0.6 * (1 - bound["recall_at_10"] - 0.02),
        )
        for seed in (1, 2, 3)
    ]
    rows, _ = compare.compare(a, b)
    got = verdicts(rows)
    assert got["latency_p50_us"] == "worse"  # beyond its bound, lower is better
    assert got["lookups_per_s"] == "better"  # beyond its bound, higher is better
    assert got["latency_p95_us"] == "ok"  # worse, but within its bound
    assert got["recall_at_10"] == "worse"  # lower, and higher is better
    assert any("B/A= 1.250 (base A)" in row for row in rows)


def test_differing_calibrations_are_unresolved_never_changed():
    a = [run(seed, calib=0.9) for seed in (1, 2, 3)]
    b = [run(seed, calib=1.3, latency_p50_us=2000.0) for seed in (1, 2, 3)]
    rows, _ = compare.compare(a, b)
    assert set(verdicts(rows).values()) == {"unresolved"}


def test_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_run():
    noisy = [run(s, latency_p50_us=v) for s, v in enumerate((500.0, 900.0, 1300.0, 1700.0))]
    same = [run(s, latency_p50_us=v) for s, v in enumerate((550.0, 950.0, 1250.0, 1650.0))]
    clear = [run(s, latency_p50_us=v) for s, v in enumerate((300.0, 310.0, 320.0, 330.0))]
    assert verdicts(compare.compare(noisy, same)[0])["latency_p50_us"] == "unresolved"
    assert verdicts(compare.compare(noisy, clear)[0])["latency_p50_us"] == "better"


def test_unequal_counts_or_digests_of_one_seed_are_errors(tmp_path):
    a, b = [run(1)], [run(1)]
    b[0]["info"]["counts"]["ingest.applied"] = 2.0
    _, errors = compare.compare(a, b)
    assert errors == ["single_ann_small seed 1: count ingest.applied 1.0 != 2.0"]
    b = [run(1)]
    b[0]["info"]["digest"] = "other"
    assert "input digests differ" in compare.compare(a, b)[1][0]
    # The open loop's counts depend on batch composition: not an error there.
    a, b = [run(1, workload="trace_open")], [run(1, workload="trace_open")]
    b[0]["info"]["counts"]["router.ann_share"] = 0.5
    assert compare.compare(a, b)[1] == []


def test_more_failed_operations_fail_the_comparison():
    _, errors = compare.compare([run(1)], [run(1, failed=3)])
    assert errors and "failed_share rose" in errors[0]
