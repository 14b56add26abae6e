"""BENCHMARK.json against the registry, and inputs against their seed."""

import json
import re
import subprocess
import sys
from pathlib import Path

import metrics
import workloads
from repro.kg import SyntheticKGConfig, generate_kg

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_lists_exactly_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]


def test_names_units_and_sizes_meet_the_contract():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    names += list(workloads.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m.unit) for m in metrics.END_TO_END + metrics.PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    assert max(m.bound for m in metrics.END_TO_END) == metrics.END_TO_END[0].bound
    assert metrics.END_TO_END[0].name == "setup_s"
    assert len(metrics.PER_LAYER) <= 128 and 2 <= len(workloads.WORKLOADS) <= 8
    assert all(
        len(w.why) <= 200 and "\n" not in w.why for w in workloads.WORKLOADS.values()
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = 4 + 22 * len(spec["workloads"])
    assert 1 <= spec["run_seconds"] <= 60 and runs * 30 < 3420


def test_one_seed_builds_one_workload_and_another_seed_another():
    kg = generate_kg(SyntheticKGConfig(num_entities=600, seed=workloads.INDEX_KG_SEED))
    for workload in workloads.WORKLOADS.values():
        first = workload.plan(kg, 5, 1.0)
        again = workload.plan(kg, 5, 1.0)
        other = workload.plan(kg, 6, 1.0)
        assert first.digest() == again.digest() != other.digest(), workload.name


def test_the_change_feed_is_40_30_30_and_never_touches_a_queried_entity():
    kg = generate_kg(SyntheticKGConfig(num_entities=600, seed=workloads.INDEX_KG_SEED))
    plan = workloads.WORKLOADS["churn_closed"].plan(kg, 3, 10.0)
    feed = [op.mutation for op in plan.ops if op.kind == "mutate"]
    assert [m.seq for m in feed] == list(range(len(feed))) and len(feed) > 300
    share = {k: sum(m.kind == k for m in feed) / len(feed) for k in ("add", "update", "remove")}
    assert abs(share["add"] - 0.4) < 0.08 and abs(share["remove"] - 0.3) < 0.08
    touched = {m.entity_id for m in feed}
    asked = {t for op in plan.ops if op.kind == "lookup" for t in op.truth}
    assert not touched & asked
    readbacks = [op for op in plan.ops if op.kind == "readback"]
    assert len(readbacks) == len(feed)
    assert sum(op.kind == "compact" for op in plan.ops) == 1


def test_nothing_the_run_started_is_alive_once_children_are_reaped():
    # In a process of its own: stopping the resource tracker is per process.
    script = (
        "import multiprocessing, time\n"
        "from multiprocessing import shared_memory\n"
        "import run\n"
        "segment = shared_memory.SharedMemory(create=True, size=64)\n"
        "segment.close(); segment.unlink()\n"
        "worker = multiprocessing.get_context('fork').Process(\n"
        "    target=time.sleep, args=(60,), daemon=True)\n"
        "worker.start()\n"
        "assert len(run.child_pids()) == 2, run.child_pids()  # tracker + worker\n"
        "run.reap_children()\n"
        "assert run.child_pids() == [], run.child_pids()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT / "benchmarks" / "e2e",
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
