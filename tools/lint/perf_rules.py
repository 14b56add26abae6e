"""REP5xx perf rules: dataflow-backed hot-path performance lints.

The paper's speedup claim lives in the embed → PQ k-NN hot path; a single
Python-level loop over an ndarray or a quadratic ``np.concatenate`` growth
pattern can silently cost more than the 256 B → 8 B compression saves.
These rules run the reaching-definitions/loop-context engine
(:mod:`lint.dataflow`) over every function in the hot-path
packages (``repro.nn`` / ``repro.index`` / ``repro.embedding``):

- ``REP501`` — ndarray allocation (``np.zeros``/``np.empty``/...),
  ``np.append``, or ``np.concatenate`` inside a ``for``/``while`` loop:
  per-iteration allocation, and the append/concatenate form is the
  classic O(n²) array-growth antipattern.
- ``REP502`` — Python-level ``for`` iteration over an ndarray: each step
  materialises a scalar/row object; vectorise or iterate an explicit
  ``.tolist()`` at the boundary.
- ``REP503`` — ``.tolist()``/``.item()`` or item-wise ``arr[i]`` indexing
  in an *inner* loop (depth ≥ 2), the per-element access pattern that
  turns a table lookup into interpreter dispatch.
- ``REP504`` — operations that silently upcast float32 to float64: a
  float32 array meeting a float64 array/scalar operand, or the builtin
  ``float`` used as a dtype (``astype(float)`` *is* float64).

All four are warnings (perf hygiene, not correctness); deliberate
exceptions are suppressed inline with ``# repro: noqa[REP50x]`` plus a
justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from . import dataflow
from .dataflow import KIND_NDARRAY, KIND_SCALAR
from .findings import Finding, Severity
from .rules import (
    HOT_PACKAGES,
    LintContext,
    LintRule,
    _in_packages,
    register,
)

__all__ = [
    "AllocInLoopRule",
    "Float32UpcastRule",
    "ItemwiseInnerLoopRule",
    "NdarrayIterationRule",
]

#: numpy calls flagged when they execute once per loop iteration.
_LOOP_ALLOC_CALLS: frozenset[str] = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "append",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "tile",
    }
)

#: The quadratic-growth subset (worth a sharper message).
_GROWTH_CALLS: frozenset[str] = frozenset(
    {"append", "concatenate", "vstack", "hstack"}
)


class _PerfRule(LintRule):
    """Shared scoping + per-unit dataflow driving for the REP5xx family."""

    severity = Severity.WARNING

    def applies_to(self, path: str) -> bool:
        """Hot-path packages."""
        return _in_packages(path, HOT_PACKAGES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Analyse each code unit independently and delegate to the hook."""
        aliases = dataflow.numpy_aliases(ctx.tree)
        for unit in dataflow.iter_code_units(ctx.tree):
            facts = dataflow.analyze(unit, aliases)
            yield from self.check_unit(ctx, unit, facts)

    def check_unit(
        self,
        ctx: LintContext,
        unit: ast.AST,
        facts: dataflow.FunctionFacts,
    ) -> Iterator[Finding]:
        raise NotImplementedError


@register
class AllocInLoopRule(_PerfRule):
    """REP501: ndarray allocation / array growth inside a loop."""

    rule_id = "REP501"
    name = "alloc-in-loop"
    description = "ndarray allocation or np.append/np.concatenate inside a loop"

    def check_unit(self, ctx, unit, facts):
        """Flag ``np.<alloc>(...)`` calls at loop depth >= 1."""
        for node in dataflow.iter_unit_nodes(unit):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and facts.is_numpy_name(func.value)
                and func.attr in _LOOP_ALLOC_CALLS
            ):
                continue
            if facts.loop_depth(node) < 1:
                continue
            if func.attr in _GROWTH_CALLS:
                detail = (
                    f"np.{func.attr} inside a loop grows an array "
                    "copy-by-copy (O(n^2)); collect into a list and "
                    "concatenate once, or preallocate"
                )
            else:
                detail = (
                    f"np.{func.attr} allocates a fresh ndarray every "
                    "iteration; hoist the allocation out of the loop"
                )
            yield ctx.finding(self, node, detail)


@register
class NdarrayIterationRule(_PerfRule):
    """REP502: Python-level ``for`` loop directly over an ndarray."""

    rule_id = "REP502"
    name = "ndarray-iteration"
    description = "Python-level for iteration over an ndarray in a hot path"

    def check_unit(self, ctx, unit, facts):
        """Flag ``for x in arr`` where ``arr`` abstracts to an ndarray."""
        for node in dataflow.iter_unit_nodes(unit):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            value = facts.value_of(node.iter)
            if value.kind == KIND_NDARRAY:
                yield ctx.finding(
                    self,
                    node,
                    "Python-level iteration over an ndarray boxes one "
                    "element per step; vectorise, or iterate "
                    "`.tolist()` explicitly if the array is small",
                )


@register
class ItemwiseInnerLoopRule(_PerfRule):
    """REP503: per-element ndarray access inside an inner loop."""

    rule_id = "REP503"
    name = "itemwise-inner-loop"
    description = ".tolist()/item-wise ndarray indexing in an inner loop"

    def check_unit(self, ctx, unit, facts):
        """Flag ``.tolist()``/``.item()`` and ``arr[i]`` at loop depth >= 2."""
        for node in dataflow.iter_unit_nodes(unit):
            if facts.loop_depth(node) < 2:
                continue
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("tolist", "item")
                    and facts.value_of(func.value).kind == KIND_NDARRAY
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f".{func.attr}() in an inner loop converts per "
                        "element; hoist the conversion out of the loop",
                    )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                index = node.slice
                if (
                    isinstance(index, ast.Name)
                    and index.id in facts.active_loop_vars(node)
                    and facts.value_of(node.value).kind == KIND_NDARRAY
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "item-wise ndarray indexing with a loop variable in "
                        "an inner loop; use a vectorised gather instead",
                    )


@register
class Float32UpcastRule(_PerfRule):
    """REP504: operation that silently upcasts float32 to float64."""

    rule_id = "REP504"
    name = "float32-upcast"
    description = "operation upcasting a float32 array to float64"

    def check_unit(self, ctx, unit, facts):
        """Flag f32×f64 arithmetic and the builtin ``float`` used as a dtype."""
        for node in dataflow.iter_unit_nodes(unit):
            if isinstance(node, ast.BinOp):
                left = facts.value_of(node.left)
                right = facts.value_of(node.right)
                sides = (left, right)
                if any(
                    v.kind == KIND_NDARRAY and v.dtype == "float32"
                    for v in sides
                ) and any(
                    v.kind in (KIND_NDARRAY, KIND_SCALAR)
                    and v.dtype == "float64"
                    for v in sides
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "arithmetic between a float32 array and a float64 "
                        "operand upcasts the result to float64",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_builtin_float_dtype(ctx, node)

    def _check_builtin_float_dtype(
        self, ctx: LintContext, node: ast.Call
    ) -> Iterator[Finding]:
        candidates: list[ast.expr] = [
            kw.value for kw in node.keywords if kw.arg == "dtype"
        ]
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and node.args
        ):
            candidates.append(node.args[0])
        for arg in candidates:
            if isinstance(arg, ast.Name) and arg.id == "float":
                yield ctx.finding(
                    self,
                    arg,
                    "builtin `float` as a dtype is float64; spell the "
                    "intended precision (np.float32) explicitly",
                )
