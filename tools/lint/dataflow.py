"""Intraprocedural dataflow: reaching definitions + loop context on the AST.

This is the engine behind the REP5xx perf rules.  For one function (or a module's top-level code) it
computes, per expression node:

- an **abstract value** — a coarse ``(kind, dtype)`` lattice
  (``ndarray``/``tensor``/``list``/``scalar``/``unknown`` crossed with
  ``float32``/``float64``/``int``/unknown) propagated through
  assignments, numpy constructors, ``.astype``/array methods, arithmetic
  promotion, and subscripts;
- the **loop depth** — how many ``for``/``while`` statements enclose the
  node (comprehensions deliberately do not count: a one-time
  list-comprehension allocation is amortised, a ``for``-body allocation
  is not);
- the set of **active loop variables** — names bound by enclosing
  ``for`` targets, so rules can recognise item-wise ``arr[i]`` indexing.

The analysis is a single forward pass; loop bodies are processed twice so
definitions made inside a loop reach uses at the top of the next
iteration (a two-pass approximation of the fixpoint, exact for this
finite lattice because transfer functions are idempotent).  Nested
``def``/``class`` bodies are *not* descended into — they execute on a
different trigger and must be analysed separately via :func:`analyze`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = [
    "AbstractValue",
    "FunctionFacts",
    "KIND_LIST",
    "KIND_NDARRAY",
    "KIND_SCALAR",
    "KIND_TENSOR",
    "KIND_UNKNOWN",
    "analyze",
    "dtype_of_node",
    "iter_code_units",
    "iter_unit_nodes",
    "numpy_aliases",
]

KIND_NDARRAY = "ndarray"
KIND_TENSOR = "tensor"
KIND_LIST = "list"
KIND_SCALAR = "scalar"
KIND_UNKNOWN = "unknown"


@dataclass(frozen=True)
class AbstractValue:
    """Coarse ``(kind, dtype)`` abstraction of a runtime value.

    ``dtype`` is ``"float32"``, ``"float64"``, ``"int"``, or ``None``
    (unknown / not applicable).  Python float literals are ``scalar`` with
    ``dtype=None``: under numpy promotion a Python scalar adopts the
    array's dtype and must *not* be treated as an upcast source.
    """

    kind: str
    dtype: str | None = None


UNKNOWN = AbstractValue(KIND_UNKNOWN)

#: numpy constructors whose implicit default dtype is float64.
_DEFAULT_F64_CTORS = frozenset(
    {"zeros", "ones", "empty", "full", "linspace", "eye", "identity"}
)

#: All numpy calls that yield an ndarray (dtype from ``dtype=`` if given).
_NDARRAY_CTORS = _DEFAULT_F64_CTORS | frozenset(
    {
        "array",
        "asarray",
        "ascontiguousarray",
        "arange",
        "fromiter",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "append",
        "tile",
        "repeat",
        "where",
        "dot",
        "matmul",
        "einsum",
        "take_along_axis",
        "argsort",
        "argpartition",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
    }
)

#: ndarray methods that return an array of the same dtype.
_PRESERVING_METHODS = frozenset(
    {
        "copy",
        "reshape",
        "transpose",
        "squeeze",
        "ravel",
        "flatten",
        "clip",
        "sum",
        "mean",
        "cumsum",
        "min",
        "max",
        "round",
        "take",
    }
)


def dtype_of_node(node: ast.AST | None) -> str | None:
    """Dtype named by an expression used as a ``dtype=`` argument.

    Recognises ``np.float32`` / ``np.float64`` attributes, their string
    spellings, and the builtin ``float`` name (which *is* float64 — the
    classic silent upcast).
    """
    if node is None:
        return None
    if isinstance(node, ast.Attribute):
        if node.attr in ("float32", "float64"):
            return node.attr
        if node.attr in ("int32", "int64", "intp", "uint8"):
            return "int"
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in ("float32", "float64"):
            return node.value
        return None
    if isinstance(node, ast.Name):
        if node.id == "float":
            return "float64"
        if node.id == "int":
            return "int"
    return None


def _promote(a: str | None, b: str | None) -> str | None:
    """Numpy-style dtype promotion on the small dtype lattice."""
    if "float64" in (a, b):
        return "float64"
    if "float32" in (a, b):
        # float32 survives against int and Python scalars; against an
        # unknown array dtype the result is unknown.
        other = b if a == "float32" else a
        return "float32" if other in ("float32", "int") else None
    if a == b:
        return a
    return None


class FunctionFacts:
    """Query interface over one analysed code unit.

    Built by :func:`analyze`; exposes per-node loop depth, active loop
    variables, and abstract values (computed against the environment that
    was live at the node's statement).
    """

    def __init__(self, numpy_aliases: frozenset[str]):
        self._numpy_aliases = numpy_aliases
        self._env_at: dict[int, dict[str, AbstractValue]] = {}
        self._depth: dict[int, int] = {}
        self._loop_vars: dict[int, frozenset[str]] = {}

    # -- queries -----------------------------------------------------------------

    def loop_depth(self, node: ast.AST) -> int:
        """Number of enclosing ``for``/``while`` statements."""
        return self._depth.get(id(node), 0)

    def active_loop_vars(self, node: ast.AST) -> frozenset[str]:
        """Names bound by ``for`` targets enclosing ``node``."""
        return self._loop_vars.get(id(node), frozenset())

    def value_of(self, node: ast.AST) -> AbstractValue:
        """Abstract value of an expression at its program point."""
        env = self._env_at.get(id(node), {})
        return self._infer(node, env)

    def is_numpy_name(self, node: ast.AST) -> bool:
        """Whether ``node`` is a bare reference to the numpy module."""
        return isinstance(node, ast.Name) and node.id in self._numpy_aliases

    # -- abstract interpretation ---------------------------------------------------

    def _infer(self, node: ast.AST, env: dict[str, AbstractValue]) -> AbstractValue:
        if isinstance(node, ast.Name):
            return env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return AbstractValue(KIND_SCALAR, "int")
            if isinstance(node.value, int):
                return AbstractValue(KIND_SCALAR, "int")
            if isinstance(node.value, float):
                return AbstractValue(KIND_SCALAR, None)
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._infer_call(node, env)
        if isinstance(node, ast.BinOp):
            left = self._infer(node.left, env)
            right = self._infer(node.right, env)
            if KIND_NDARRAY in (left.kind, right.kind):
                return AbstractValue(
                    KIND_NDARRAY, _promote(left.dtype, right.dtype)
                )
            if KIND_TENSOR in (left.kind, right.kind):
                return AbstractValue(KIND_TENSOR)
            return UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand, env)
        if isinstance(node, ast.Subscript):
            base = self._infer(node.value, env)
            if base.kind == KIND_NDARRAY:
                return AbstractValue(KIND_NDARRAY, base.dtype)
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            if node.attr == "T":
                return self._infer(node.value, env)
            if node.attr == "data":
                base = self._infer(node.value, env)
                if base.kind == KIND_TENSOR:
                    return AbstractValue(KIND_NDARRAY)
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            body = self._infer(node.body, env)
            orelse = self._infer(node.orelse, env)
            return body if body == orelse else UNKNOWN
        if isinstance(node, (ast.List, ast.ListComp, ast.Tuple)):
            return AbstractValue(KIND_LIST)
        return UNKNOWN

    def _infer_call(
        self, node: ast.Call, env: dict[str, AbstractValue]
    ) -> AbstractValue:
        func = node.func
        dtype_kw = next(
            (kw.value for kw in node.keywords if kw.arg == "dtype"), None
        )
        # numpy module functions: np.<ctor>(...)
        if isinstance(func, ast.Attribute) and self.is_numpy_name(func.value):
            name = func.attr
            if name in ("float32", "float64"):
                return AbstractValue(KIND_SCALAR, name)
            if name in _NDARRAY_CTORS:
                dtype = dtype_of_node(dtype_kw)
                if dtype is None and dtype_kw is None:
                    if name in _DEFAULT_F64_CTORS:
                        dtype = "float64"
                    elif name in ("argsort", "argpartition"):
                        dtype = "int"
                return AbstractValue(KIND_NDARRAY, dtype)
            return UNKNOWN
        # methods on an inferred base value
        if isinstance(func, ast.Attribute):
            base = self._infer(func.value, env)
            if func.attr == "astype":
                arg = dtype_kw if dtype_kw is not None else (
                    node.args[0] if node.args else None
                )
                return AbstractValue(KIND_NDARRAY, dtype_of_node(arg))
            if base.kind == KIND_NDARRAY:
                if func.attr == "tolist":
                    return AbstractValue(KIND_LIST)
                if func.attr == "item":
                    return AbstractValue(KIND_SCALAR, base.dtype)
                if func.attr in _PRESERVING_METHODS:
                    return AbstractValue(KIND_NDARRAY, base.dtype)
            return UNKNOWN
        if isinstance(func, ast.Name):
            if func.id == "Tensor":
                return AbstractValue(KIND_TENSOR)
            if func.id == "float":
                return AbstractValue(KIND_SCALAR, None)
            if func.id in ("list", "sorted"):
                return AbstractValue(KIND_LIST)
            if func.id in ("len", "int"):
                return AbstractValue(KIND_SCALAR, "int")
        return UNKNOWN


class _Analyzer:
    """Single forward walk maintaining (env, loop depth, loop vars)."""

    def __init__(self, facts: FunctionFacts):
        self.facts = facts
        self.env: dict[str, AbstractValue] = {}
        self.depth = 0
        self.loop_vars: list[str] = []

    # -- statement dispatch --------------------------------------------------------

    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        self._record(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Separate code unit: bind the name, do not descend.
            self.env[stmt.name] = UNKNOWN
            return
        if isinstance(stmt, ast.Assign):
            value = self.facts._infer(stmt.value, self.env)
            for target in stmt.targets:
                self._bind(target, value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.facts._infer(stmt.value, self.env)
            else:
                value = _value_from_annotation(stmt.annotation)
            self._bind(stmt.target, value)
            return
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id, UNKNOWN)
                value = self.facts._infer(stmt.value, self.env)
                if KIND_NDARRAY in (current.kind, value.kind):
                    self.env[stmt.target.id] = AbstractValue(
                        KIND_NDARRAY, _promote(current.dtype, value.dtype)
                    )
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_for(stmt)
            return
        if isinstance(stmt, ast.While):
            self._visit_loop_body(stmt.body)
            self.run(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self.run(stmt.body)
            self.run(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.run(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self._record(handler)
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
            return
        # Expression statements, return, raise, etc.: effects recorded only.

    def _visit_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        iterated = self.facts._infer(stmt.iter, self.env)
        if iterated.kind == KIND_NDARRAY:
            element = AbstractValue(KIND_NDARRAY, iterated.dtype)
        else:
            element = UNKNOWN
        names = _target_names(stmt.target)
        for name in names:
            self.env[name] = element if len(names) == 1 else UNKNOWN
        self.loop_vars.extend(names)
        self._visit_loop_body(stmt.body)
        del self.loop_vars[len(self.loop_vars) - len(names):]
        self.run(stmt.orelse)

    def _visit_loop_body(self, body: list[ast.stmt]) -> None:
        self.depth += 1
        # Two passes: the first collects in-loop definitions, the second
        # records environments in which those definitions have reached
        # uses earlier in the body (next-iteration semantics).
        self.run(body)
        self.run(body)
        self.depth -= 1

    # -- helpers ---------------------------------------------------------------

    def _bind(self, target: ast.expr, value: AbstractValue) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, UNKNOWN)
        # Attribute / Subscript stores do not create local bindings.

    def _record(self, stmt: ast.AST) -> None:
        """Snapshot the environment for every expression in ``stmt``.

        Nested ``def``/``class`` bodies are opaque: they are separate code
        units (see :func:`iter_code_units`) with their own facts.
        """
        snapshot = dict(self.env)
        depth = self.depth
        loop_vars = frozenset(self.loop_vars)
        for node in _shallow_walk(stmt):
            self.facts._env_at[id(node)] = snapshot
            self.facts._depth[id(node)] = depth
            self.facts._loop_vars[id(node)] = loop_vars


def _shallow_walk(root: ast.AST):
    """Yield ``root`` and descendants, not crossing into nested code units.

    A nested ``def`` or ``class`` statement is yielded itself (so rules can
    see it exists) but its body is not traversed.
    """
    yield root
    if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def iter_unit_nodes(unit: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module):
    """All AST nodes belonging to ``unit`` itself (nested units excluded)."""
    for stmt in unit.body:
        yield from _shallow_walk(stmt)


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


def _value_from_annotation(annotation: ast.expr | None) -> AbstractValue:
    """Abstract value promised by a parameter/variable annotation."""
    if annotation is None:
        return UNKNOWN
    text = ast.unparse(annotation) if hasattr(ast, "unparse") else ""
    if "ndarray" in text:
        return AbstractValue(KIND_NDARRAY)
    if text.endswith("Tensor") or text == "Tensor":
        return AbstractValue(KIND_TENSOR)
    return UNKNOWN


def numpy_aliases(tree: ast.Module) -> frozenset[str]:
    """Local names bound to the numpy module by top-level imports."""
    aliases = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return frozenset(aliases)


def analyze(
    unit: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
    aliases: frozenset[str] | None = None,
) -> FunctionFacts:
    """Analyse one code unit and return its :class:`FunctionFacts`.

    For a function, parameters annotated as ndarrays/Tensors seed the
    environment; ``self`` is left unknown.
    """
    facts = FunctionFacts(aliases or frozenset({"np", "numpy"}))
    analyzer = _Analyzer(facts)
    if isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = unit.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            analyzer.env[arg.arg] = _value_from_annotation(arg.annotation)
    analyzer.run(unit.body)
    return facts


def iter_code_units(
    tree: ast.Module,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef | ast.Module]:
    """The module body plus every (possibly nested) function definition."""
    units: list[ast.FunctionDef | ast.AsyncFunctionDef | ast.Module] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append(node)
    return units
