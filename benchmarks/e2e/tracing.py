"""Spans recorded from outside the program, and the layer budget they give.

The traced run installs timing proxies on the *instances'* public methods
(an instance attribute shadows the class method, so ``self.index.search``
inside the engine resolves to the proxy).  No file under ``src/`` is
edited; spans inside the program are a later issue.

A span is ``[name, start, end, parent, op_id, extra]``: ``parent`` is the
index of the span that caused it (-1 for a call the driver made),
``op_id`` the driver operation it belongs to, ``extra`` small counts taken
at the same boundary (batch size, rows, cache hits).  Spans stay in memory
and are written once, when the run ends.

The layer of a span is the part of its name before the first dot.  A
span's self time is its duration minus the part of it its children cover,
so the self times of all spans add up to the duration of the driver's
calls, and the per-layer shares add up to 1 by construction.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, OP, EXTRA = range(6)

#: Layers in pipeline order; every share metric is ``<layer>.share``.
LAYERS = ("normalize", "cache", "router", "embed", "index", "engine", "ingest")


class SpanRecorder:
    """In-memory span log plus the proxies that feed it (one thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._clock = clock
        self._stack: list[int] = []
        self._installed: list[tuple[object, str]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        extra: Callable[[tuple, object], dict] | None = None,
    ) -> Callable:
        """``fn`` with a span around it; ``extra(args, result)`` adds counts."""
        spans, stack, clock = self.spans, self._stack, self._clock

        def proxy(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return proxy

    def install(self, obj, attr: str, name: str, extra=None) -> None:
        """Shadow ``obj.attr`` with a proxy until :meth:`uninstall`."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), extra))
        self._installed.append((obj, attr))

    def uninstall(self) -> None:
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": span[NAME],
                    "start": span[START] - origin,
                    "end": span[END] - origin,
                    "parent": span[PARENT],
                    "op_id": span[OP],
                }
                row.update(span[EXTRA] or {})
                out.write(json.dumps(row) + "\n")


def install_proxies(recorder: SpanRecorder, engine, pipeline, consumer=None) -> None:
    """Proxy every layer boundary reachable through public attributes."""

    def batch(args, _result):
        return {"n": len(args[0])}

    def searched(args, _result):
        return {"n": len(args[0]), "rows": int(engine.index.ntotal)}

    def probed(args, result):
        return {"n": len(args[0]), "hits": sum(r is not None for r in result)}

    for attr in ("lookup_batch", "submit", "flush", "compact", "apply_mutation"):
        recorder.install(engine, attr, f"engine.{attr}")
    if consumer is not None:
        recorder.install(
            consumer, "apply", "ingest.apply",
            lambda args, _r: {"kind": args[0].kind},
        )
    recorder.install(pipeline, "embed_queries", "embed.queries", batch)
    index = engine.index
    recorder.install(index, "search", "index.search", searched)
    for attr in ("add", "remove", "update", "compact"):
        if hasattr(index, attr):
            recorder.install(index, attr, f"index.{attr}")
    router = engine.router
    if router is not None:
        recorder.install(router, "serve_local", "router.serve_local", batch)
        if router.fuzzy is not None:
            recorder.install(router.fuzzy, "lookup_batch", "router.fuzzy", batch)
        recorder.install(router.label_table, "add", "router.label_add")
        recorder.install(router.label_table, "drop_entity", "router.label_drop")
    cache = engine.cache
    if cache is not None:
        recorder.install(cache, "get_results", "cache.get_results", probed)
        recorder.install(cache, "put_results", "cache.put_results", batch)
        recorder.install(cache, "get_embeddings", "cache.get_embeddings", batch)


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Per span: duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _p50_us(values: Sequence[float]) -> float:
    return float(np.percentile(values, 50)) * 1e6 if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Sequence[Sequence], lookup_queries: int, normalize_s_per_query: float
) -> dict[str, float]:
    """The span-derived per-layer metrics (see README for what each moves).

    ``normalize`` is a module function the engine binds at import, so it
    cannot be proxied: its cost per query is measured directly by the
    caller and moved here from the engine's self time to its own layer.
    """
    selfs = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_layer[layer_of(span[NAME])] += selfs[i]
        by_name[span[NAME]].append(i)
    root_total = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    moved = min(normalize_s_per_query * lookup_queries, by_layer["engine"])
    by_layer["engine"] -= moved
    by_layer["normalize"] += moved

    def durations(name: str) -> list[float]:
        return [spans[i][END] - spans[i][START] for i in by_name[name]]

    def counted(name: str, key: str = "n") -> int:
        return sum((spans[i][EXTRA] or {}).get(key, 0) for i in by_name[name])

    out = {
        f"{layer}.share": _ratio(by_layer[layer], root_total) for layer in LAYERS
    }
    embed, search = durations("embed.queries"), durations("index.search")
    fuzzy = durations("router.fuzzy")
    mutate = [
        d for name in ("index.add", "index.remove", "index.update")
        for d in durations(name)
    ]
    probes = counted("cache.get_results")
    out.update({
        "normalize.us_per_query": normalize_s_per_query * 1e6,
        "cache.self_us_per_query": _ratio(by_layer["cache"], lookup_queries) * 1e6,
        "cache.result_hit_rate": _ratio(counted("cache.get_results", "hits"), probes),
        "router.self_us_per_query": _ratio(
            sum(selfs[i] for i in by_name["router.serve_local"]),
            counted("router.serve_local"),
        ) * 1e6,
        "router.fuzzy_us_per_routed": _ratio(sum(fuzzy), counted("router.fuzzy")) * 1e6,
        "embed.us_per_query": _ratio(sum(embed), counted("embed.queries")) * 1e6,
        "embed.us_per_call": _ratio(sum(embed), len(embed)) * 1e6,
        "embed.batch_mean": _ratio(counted("embed.queries"), len(embed)),
        "index.search_us_per_query": _ratio(sum(search), counted("index.search")) * 1e6,
        "index.search_us_per_call": _ratio(sum(search), len(search)) * 1e6,
        "index.batch_mean": _ratio(counted("index.search"), len(search)),
        "index.rows_per_query": _ratio(
            sum(
                (spans[i][EXTRA] or {}).get("rows", 0)
                * (spans[i][EXTRA] or {}).get("n", 0)
                for i in by_name["index.search"]
            ),
            counted("index.search"),
        ),
        "index.mutate_us_p50": _p50_us(mutate),
        "index.compact_ms": sum(durations("index.compact")) * 1e3,
        "engine.self_us_per_query": _ratio(by_layer["engine"], lookup_queries) * 1e6,
        "ingest.compact_ms": sum(durations("engine.compact")) * 1e3,
    })
    applies = by_name["ingest.apply"]
    for kind in ("add", "update", "remove"):
        out[f"ingest.{kind}_us_p50"] = _p50_us([
            spans[i][END] - spans[i][START]
            for i in applies
            if (spans[i][EXTRA] or {}).get("kind") == kind
        ])
    return out
