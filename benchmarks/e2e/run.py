"""End-to-end lookup benchmark: one command, four workloads, a layer budget.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--runs R] [--out FILE]     # every workload

With ``--workload`` the process is one run: it builds the workload from
the seed, drives the program through its public API only, checks the
outputs, and prints one JSON object as its last line (``--trace 0``: the
end-to-end metrics; ``--trace 1``: the per-layer metrics, from a pass with
timing proxies installed, see ``tracing.py``).  Without it, every workload
is run in a child process per run -- ``--runs`` untraced runs on
consecutive seeds and one traced run -- and the records are collected in
``--out`` for ``compare.py``.  README.md defines every name printed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"
import harness  # noqa: E402  (after the BLAS pins: these import numpy)
import metrics  # noqa: E402
from tracing import SpanRecorder, install_proxies  # noqa: E402

#: The q-gram tier breaks score ties in set-iteration order, which follows
#: str hashes: without a fixed hash seed a seed's counts do not repeat.
HASH_SEED = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SETUP_REPEATS = 3
WARMUP_QUERIES = 8
CHECK_SAMPLE = 200
TIE_TOLERANCE = 1e-5


def _fail(message: str) -> int:
    print(f"benchmarks/e2e: {message}", file=sys.stderr)
    return 2


# -- set-up ----------------------------------------------------------------------


class Env:
    """One complete set-up: model, indexed KG, engine, and what each cost.

    ``probe`` is read before the first stage and after every stage, outside
    the stage timings: ``readings`` is what the host was doing meanwhile.
    """

    def __init__(self, workload, probe) -> None:
        from workloads import index_kg, train_pipeline

        self.workload = workload
        self.engine = None
        self.probe = probe
        self.readings = [probe()]
        self.kg, kg_s = self._stage(lambda: index_kg(workload))
        self.pipeline, fit_s = self._stage(train_pipeline)
        self.timings = {"setup.kg_s": kg_s, "setup.fit_s": fit_s}
        try:
            self.timings.update(self.build())
        except BaseException:
            self.close()
            raise

    def _stage(self, work):
        start = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - start
        self.readings.append(self.probe())
        return result, seconds

    def build(self) -> dict[str, float]:
        """(Re)build index and engine over the trained model; warm them up."""
        from workloads import K

        state, index_s = self._stage(
            lambda: self.workload.build_index(self.pipeline, self.kg)
        )

        def build_engine() -> None:
            self.engine = self.workload.build_engine(self.pipeline, state)

        def warm_up() -> None:
            # Starts the worker pool and pays numpy's first-call costs; the
            # cache is emptied again so the measured phase starts cold.
            labels = [e.label for e in self.kg.entities()][:WARMUP_QUERIES]
            self.engine.lookup_batch(labels, K)
            for label in labels:
                self.engine.lookup_batch([label[:-1] + "x"], K)
            if self.engine.cache is not None:
                self.engine.cache.clear()

        _, engine_s = self._stage(build_engine)
        _, warmup_s = self._stage(warm_up)
        return {
            "setup.build_index_s": index_s,
            "setup.engine_build_s": engine_s,
            "setup.warmup_s": warmup_s,
        }

    def rebuild(self) -> None:
        self.close()
        self.build()

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


def child_pids() -> list[int]:
    """Direct children of this process that the kernel still lists (/proc)."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:  # no procfs: nothing to observe
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_resource_tracker() -> None:
    """End multiprocessing's shm helper process and wait for it.

    ``SharedMemory`` starts it on first use and it outlives its parent by
    the moment it takes to see the pipe close: stopped here, nothing of
    the run is alive once the command returns.  Call with no worker left
    (a forked worker holds a copy of the tracker's pipe).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if callable(stop):
        stop()


def reap_children() -> list[int]:
    """Kill and wait for whatever this process started; the pids it had to kill.

    The last thing every way out of ``main`` does.  After a clean run it
    finds nothing: the engines closed their workers and ``hygiene`` stopped
    the resource tracker.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop_resource_tracker()
    killed = []
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        killed.append(pid)
    return killed


def hygiene() -> list[str]:
    """Leaks this process left behind after its engines closed."""
    from repro.index.shm import SEGMENT_PREFIX, owned_segment_names

    mine = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    problems = [
        f"shm segment {name} left behind"
        for name in owned_segment_names()
        if name.startswith(mine)
    ]
    workers = multiprocessing.active_children()
    problems += [f"child process {child.pid} still alive" for child in workers]
    if not workers:
        stop_resource_tracker()
        problems += [f"child process {pid} still alive" for pid in child_pids()]
    return problems


# -- one measured pass -----------------------------------------------------------


@dataclass
class Pass:
    """Everything one pass over a plan produced."""

    windows: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # per op: what the call returned
    failures: list[str] = field(default_factory=list)
    others: list = field(default_factory=list)  # non-lookup (index, kind, seconds)
    open: object = None  # harness.OpenResult of an open loop
    stats: dict[str, float] = field(default_factory=dict)


def _stat_snapshot(env: Env) -> dict[str, float]:
    engine = env.engine
    snap = dict(engine.serving_stats())
    if engine.cache is not None:
        snap["cache.evictions"] = engine.cache.stats_dict()["evictions"]
        snap["cache.generation"] = engine.cache.generation
    health = getattr(engine.index, "health_stats", None)
    if callable(health):
        stats = health()
        snap["partial_searches"] = stats["partial_searches"]
        for i, shard in enumerate(stats["shards"]):
            snap[f"shard{i}.seconds"] = shard["seconds"]
            snap[f"shard{i}.searches"] = shard["searches"]
    return snap


def run_pass(env: Env, plan, probe, recorder=None) -> Pass:
    """Drive ``plan`` through the engine once; score it afterwards."""
    from repro.serving import ChangeFeedConsumer
    from workloads import K

    engine, workload, ops = env.engine, env.workload, plan.ops
    # apply() is called synchronously: the background thread is not started.
    consumer = ChangeFeedConsumer(engine)
    if recorder is not None:
        install_proxies(recorder, engine, env.pipeline, consumer)
    out = Pass()
    before = _stat_snapshot(env)
    try:
        if workload.loop == "open":
            counts = [harness.window_count(len(span)) for _, span in plan.phases]

            def on_action(arrival: int) -> None:
                recorder.op_id = arrival

            out.open = harness.run_open(
                engine, [op.queries[0] for op in ops], [op.gap for op in ops],
                plan.phases, counts, K, engine.max_batch_age, probe,
                on_action=on_action if recorder is not None else None,
            )
            out.windows = out.open.windows
            for i, handle in enumerate(out.open.handles):
                if handle.exception is not None:
                    out.failures.append(f"op {i}: {handle.exception!r}")
                    out.rows.append([])
                else:
                    out.rows.append([handle.result])
        else:
            out.rows = [None] * len(ops)

            def execute(i: int, op) -> int:
                if recorder is not None:
                    recorder.op_id = i
                if op.kind == "mutate":
                    out.rows[i] = consumer.apply(op.mutation)
                elif op.kind == "compact":
                    out.rows[i] = engine.compact()
                else:
                    out.rows[i] = engine.lookup_batch(op.queries, K)
                    return len(op.queries)
                return 0

            lookups = sum(1 for op in ops if op.queries)
            closed = harness.run_closed(
                ops, execute, harness.window_count(lookups), probe
            )
            out.windows, out.others = closed.windows, closed.others
            out.failures += [f"op {i}: {exc!r}" for i, exc in closed.errors]
    finally:
        if recorder is not None:
            recorder.uninstall()
    after = _stat_snapshot(env)
    out.stats = {key: after[key] - before.get(key, 0) for key in after}
    out.stats.update({f"ingest.{k}": v for k, v in consumer.ingest_stats().items()})
    index = engine.index
    out.stats["tombstone_fraction"] = (
        getattr(index, "tombstone_count", 0) / index.ntotal if index.ntotal else 0.0
    )
    _score(env, plan, consumer, out)
    return out


def _score(env: Env, plan, consumer, out: Pass) -> None:
    """Recall and the per-op output checks, outside every timed region."""
    routed = env.engine.router is not None
    hits = asked = 0
    last_seq = -1
    for i, (op, rows) in enumerate(zip(plan.ops, out.rows)):
        if op.kind == "mutate":
            last_seq = op.mutation.seq
            if rows is not True:
                out.failures.append(f"op {i}: {op.mutation.kind} dead-lettered")
            continue
        if op.kind == "compact" or rows is None:
            continue
        for query, row, truth, qkind in zip(
            op.queries, rows, op.truth or [None] * len(rows),
            op.qkinds or [None] * len(rows),
        ):
            ids = [c.entity_id for c in row]
            if op.kind == "readback":
                want, eid = op.expect
                ok = (ids[:1] == [eid]) if want == "rank1" else (eid not in ids)
                if not ok:
                    out.failures.append(f"op {i}: readback {want} {eid} got {ids[:3]}")
                continue
            asked += 1
            found = truth in ids
            hits += found
            if routed and qkind == "exact" and not found:
                out.failures.append(f"op {i}: exact query {query!r} lost {truth}")
    out.stats["recall_at_10"] = hits / asked if asked else 0.0
    if last_seq >= 0:
        if consumer.watermark != last_seq:
            out.failures.append(
                f"watermark {consumer.watermark} != last seq {last_seq}"
            )
        out.failures += [
            f"dead letter: {d.mutation.kind} {d.mutation.entity_id}: {d.error}"
            for d in consumer.dead_letters
        ]


# -- output checks against independent references --------------------------------


def check_brute_force(env: Env, plan) -> tuple[int, list[str]]:
    """Flat paths: engine top-k equals a numpy scan of the same vectors."""
    import numpy as np
    from repro.lookup.normalize import normalize
    from workloads import K

    engine, pipeline = env.engine, env.pipeline
    router = engine.router
    queries = []
    for op in plan.ops:
        for query in op.queries if op.kind == "lookup" else ():
            key = normalize(query)
            if router is not None and (
                router.label_table.get(key) or router.wants_fuzzy(key)
            ):
                continue  # answered by a string tier, not by the scan
            queries.append(query)
        if len(queries) >= CHECK_SAMPLE:
            break
    queries = queries[:CHECK_SAMPLE]
    mentions, entity_ids = pipeline.index_rows()
    row_of = {eid: row for row, eid in enumerate(entity_ids)}
    base = pipeline.embed_queries(mentions).astype(np.float64)
    asked = pipeline.embed_queries(queries).astype(np.float64)
    distances = (
        (asked**2).sum(1)[:, None] - 2.0 * asked @ base.T + (base**2).sum(1)[None, :]
    )
    problems = []
    for query, row, truth in zip(queries, engine.lookup_batch(queries, K), distances):
        best = np.sort(truth)[:K]
        got = np.array([truth[row_of[c.entity_id]] for c in row])
        scores = np.array([-c.score for c in row])
        if len(row) != K or not (
            np.allclose(got, best, rtol=0, atol=TIE_TOLERANCE)
            and np.allclose(scores, best, rtol=0, atol=TIE_TOLERANCE)
        ):
            problems.append(f"brute force: {query!r} engine top-{K} differs")
    return len(queries), problems


def check_inline_equivalence(env: Env, plan, measured: Pass) -> tuple[int, list[str]]:
    """bulk_pq_sharded: the process executor answers as the inline one does."""
    from repro.serving import LookupEngine
    from workloads import K, sharded_pq

    index, rows = sharded_pq(env.pipeline, env.kg, "inline")
    problems = []
    with LookupEngine(env.pipeline, index, rows) as inline:
        for i in (0, 1):
            if inline.lookup_batch(plan.ops[i].queries, K) != measured.rows[i]:
                problems.append(f"inline equivalence: batch {i} differs")
    return 2, problems


# -- one run ---------------------------------------------------------------------


def _host_info(env: Env) -> dict:
    import numpy

    index = env.engine.index
    resolved = getattr(index, "resolved_executor", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pins": {var: os.environ[var] for var in BLAS_PINS},
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "executor": resolved() if callable(resolved) else "inline",
        "workers": env.workload.workers,
        "index_rows": int(index.ntotal),
        "loop": env.workload.loop,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; the record ``main`` prints and stores."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    probe = harness.HostProbe()
    calib_start = probe()
    setups, setup_seconds = [], []
    env = None
    failures: list[str] = []
    checked = 0
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if env is not None:
                env.close()
            env = Env(workload, probe)
            setups.append(dict(env.timings))
            # Scaled to the reference host like every other compute time.
            setup_seconds.append(
                sum(env.timings.values())
                * harness.PROBE_REF_S / statistics.median(env.readings)
            )
        plan = workload.plan(env.kg, seed, seconds / 2 if trace else seconds)
        if workload.flat:
            checked, failures = check_brute_force(env, plan)
            if env.engine.cache is not None:
                env.engine.cache.clear()
        info = _host_info(env)
        bytes_per_row = env.engine.index_bytes() / env.engine.index.ntotal
        measured = run_pass(env, plan, probe)
        if not workload.flat:
            extra, problems = check_inline_equivalence(env, plan, measured)
            checked += extra
            failures += problems
        traced = recorder = None
        if trace:
            env.rebuild()
            recorder = SpanRecorder()
            traced = run_pass(env, plan, probe, recorder)
    finally:
        if env is not None:
            env.close()
    failures += hygiene()
    for result in (measured, traced):
        if result is not None:
            failures += result.failures
    calib_end = probe()

    summary = harness.summarize(measured.windows)
    if trace:
        values = metrics.per_layer_values(
            plan, measured, traced, recorder, setups[0], summary
        )
        values["host.calib_ms_start"] = calib_start * 1e3
        values["host.calib_ms_end"] = calib_end * 1e3
        recorder.write_jsonl(HERE / "out" / f"trace-{name}.jsonl")
        table = metrics.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_seconds),
            "lookups_per_s": summary["lookups_per_s"],
            "latency_p50_us": summary["latency_p50_us"],
            "latency_p95_us": summary["latency_p95_us"],
            "recall_at_10": measured.stats["recall_at_10"],
            "index_bytes_per_row": bytes_per_row,
        }
        table = metrics.END_TO_END
        if any(v != v for v in values.values()):
            raise SystemExit(
                "benchmarks/e2e: --seconds is too short to support "
                f"p{harness.TAIL:g} with {harness.MIN_BEYOND} samples beyond it"
            )
    attempted = checked + (2 if trace else 1) * sum(
        max(1, len(op.queries)) for op in plan.ops
    )
    info.update({
        "digest": plan.digest(),
        "calib_ms": [calib_start * 1e3, calib_end * 1e3],
        "windows": len(measured.windows),
        "ops": len(plan.ops),
        "setup_s_scaled": setup_seconds,
        "setup_s_raw": [sum(s.values()) for s in setups],
        "counts": metrics.count_values(measured),
        "raw": {k: v for k, v in summary.items() if k.startswith(("raw.", "host."))},
        "failures": failures[:20],
        "flags": (
            ["trace.overhead_ratio > 1.10"]
            if trace and values["trace.overhead_ratio"] > 1.10 else []
        ),
    })
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in table
        },
        "info": info,
    }


def print_record(record: dict) -> None:
    print(
        f"== {record['workload']} seed={record['seed']} "
        f"trace={record['trace']} correct={record['correct']} "
        f"failed={record['failed']}/{record['attempted']}"
    )
    for name, cell in record["metrics"].items():
        print(f"  {name:32s} {cell['value']:14.4f} {cell['unit']}")
    for line in record["info"]["failures"] + record["info"]["flags"]:
        print(f"  ! {line}")


# -- every workload --------------------------------------------------------------


def run_all(runs: int, seed: int, seconds: float, out: Path | None) -> int:
    """Each run in its own cold process, as the driver does it."""
    from workloads import WORKLOADS

    records = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        for name in WORKLOADS:
            jobs = [(seed + r, 0) for r in range(runs)] + [(seed, 1)]
            for job_seed, trace in jobs:
                path = Path(scratch) / "record.json"
                done = subprocess.run(
                    [
                        sys.executable, str(HERE / "run.py"), "--workload", name,
                        "--seed", str(job_seed), "--seconds", str(seconds),
                        "--trace", str(trace), "--out", str(path),
                    ],
                    stdout=subprocess.DEVNULL,
                )
                if done.returncode != 0:
                    return _fail(f"{name} seed {job_seed} exited {done.returncode}")
                record = json.loads(path.read_text(encoding="utf-8"))
                print_record(record)
                records.append(record)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"runs": records}, indent=1), encoding="utf-8")
        print(f"wrote {out}")
    return 0 if all(r["correct"] for r in records) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in-process")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", type=Path, help="write the record(s) here as JSON")
    args = parser.parse_args(argv)

    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args.runs, args.seed, args.seconds, args.out)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    try:
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        # Raised or returned, no process of this run outlives the command.
        reap_children()
    print_record(record)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
