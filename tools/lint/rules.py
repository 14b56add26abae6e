"""Lint rules enforcing this reproduction's correctness invariants.

Rule families (ids are stable; DESIGN.md §8 has the audit that kept them):

- **R1 dtype discipline** — ``REP101`` (numpy constructor without an
  explicit ``dtype``) and ``REP102`` (float64 leaking into a hot path).
  The paper's 64-d → 8 B product quantization assumes 256 B float32
  vectors; implicit float64 silently doubles memory and changes hashes.
- **R4 API hygiene** — ``REP401`` bare ``except:``, ``REP402`` mutable
  default argument, ``REP403`` ``print()`` in library code.
- **R5 hot-path performance** — ``REP501``–``REP504``, in
  :mod:`lint.perf_rules` on top of :mod:`lint.dataflow`.

Each rule is registered in :data:`RULES` and consumed by
:mod:`lint.engine`; paths are matched on their ``repro/...`` tail so test
fixtures can emulate any package layout.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from .findings import Finding, Severity

__all__ = ["LintContext", "LintRule", "RULES", "register"]

#: Packages where dtype discipline is enforced (embedding hot paths).
HOT_PACKAGES: tuple[str, ...] = ("repro/nn", "repro/index", "repro/embedding")

#: Entry-point modules where ``print`` is the intended output channel.
PRINT_ALLOWLIST: tuple[str, ...] = ("repro/cli.py", "repro/__main__.py")

#: numpy array constructors that accept (and should be given) ``dtype=``.
_NUMPY_CONSTRUCTORS: frozenset[str] = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "array",
        "asarray",
        "ascontiguousarray",
        "arange",
        "eye",
        "linspace",
        "fromiter",
    }
)


@dataclass(frozen=True)
class LintContext:
    """Everything a rule needs to inspect one parsed source file."""

    path: str
    tree: ast.Module

    def finding(
        self, rule: "LintRule", node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` for ``node`` on behalf of ``rule``."""
        return Finding(
            rule=rule.rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=rule.severity,
            message=message,
        )


def module_tail(path: str) -> str:
    """The ``repro/...`` tail of ``path`` (or the whole path, normalised).

    Matching on the tail makes rules independent of where the package is
    checked out (``src/repro/...``, a fixture directory, a tempdir).
    """
    posix = path.replace("\\", "/")
    marker = "repro/"
    index = posix.rfind(marker)
    return posix[index:] if index >= 0 else posix


def _in_packages(path: str, packages: tuple[str, ...]) -> bool:
    tail = module_tail(path)
    return any(tail == pkg or tail.startswith(pkg + "/") for pkg in packages)


def _in_modules(path: str, modules: tuple[str, ...]) -> bool:
    return module_tail(path) in modules


class LintRule:
    """Base class: one registered rule with a stable id and severity."""

    rule_id: str = "REP000"
    name: str = "base"
    severity: str = Severity.WARNING
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` at all (package scoping)."""
        return True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for one file (subclass hook)."""
        raise NotImplementedError


#: Registry of all known rules, keyed by rule id.
RULES: dict[str, LintRule] = {}


def register(rule_cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding an instance of ``rule_cls`` to :data:`RULES`."""
    instance = rule_cls()
    if instance.rule_id in RULES:
        raise ValueError(f"duplicate rule id {instance.rule_id}")
    RULES[instance.rule_id] = instance
    return rule_cls


@register
class ImplicitDtypeRule(LintRule):
    """REP101: numpy constructor without an explicit ``dtype`` in a hot path.

    ``np.zeros(n)`` silently allocates float64; in ``repro.nn`` /
    ``repro.index`` / ``repro.embedding`` every array that feeds the
    embedding pipeline must state its dtype.  ``*_like`` constructors are
    exempt (they inherit the prototype's dtype).
    """

    rule_id = "REP101"
    name = "implicit-dtype"
    severity = Severity.WARNING
    description = "numpy constructor without explicit dtype in a hot path"

    def applies_to(self, path: str) -> bool:
        """Hot-path packages only."""
        return _in_packages(path, HOT_PACKAGES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag ``np.<constructor>(...)`` calls lacking a ``dtype=`` kwarg."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            root = func.value
            if not (isinstance(root, ast.Name) and root.id in ("np", "numpy")):
                continue
            if func.attr not in _NUMPY_CONSTRUCTORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            yield ctx.finding(
                self,
                node,
                f"np.{func.attr}(...) without explicit dtype= "
                "(dtype inferred implicitly in a hot path)",
            )


@register
class Float64LeakRule(LintRule):
    """REP102: explicit float64 in a hot path.

    The PQ compression story (64-d float32 = 256 B → 8 B codes) and the
    index memory model assume float32 end-to-end.  Deliberate float64
    accumulation sites (e.g. k-means distance kernels) carry an inline
    ``noqa`` with the reason.
    """

    rule_id = "REP102"
    name = "float64-leak"
    severity = Severity.WARNING
    description = "explicit float64 dtype in a hot path"

    def applies_to(self, path: str) -> bool:
        """Hot-path packages."""
        return _in_packages(path, HOT_PACKAGES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag ``np.float64`` attributes and ``dtype="float64"`` strings."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "float64":
                root = node.value
                if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
                    yield ctx.finding(
                        self, node, "np.float64 used in a float32 hot path"
                    )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg == "dtype"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value == "float64"
                    ):
                        yield ctx.finding(
                            self,
                            kw.value,
                            'dtype="float64" used in a float32 hot path',
                        )


@register
class BareExceptRule(LintRule):
    """REP401: bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit``."""

    rule_id = "REP401"
    name = "bare-except"
    severity = Severity.ERROR
    description = "bare except clause"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag ``except:`` handlers with no exception type."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt; "
                    "name the exception type",
                )


@register
class MutableDefaultRule(LintRule):
    """REP402: mutable default argument shared across calls."""

    rule_id = "REP402"
    name = "mutable-default"
    severity = Severity.WARNING
    description = "mutable default argument"

    _MUTABLE_CALLS = ("list", "dict", "set")

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag list/dict/set literals (or calls) used as parameter defaults."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.finding(
                        self,
                        default,
                        f"mutable default argument in {node.name}() is "
                        "shared across calls",
                    )


@register
class PrintInLibraryRule(LintRule):
    """REP403: ``print()`` in library code (CLI entry points are exempt)."""

    rule_id = "REP403"
    name = "print-in-library"
    severity = Severity.WARNING
    description = "print() call in library code"

    def applies_to(self, path: str) -> bool:
        """Library modules only; CLI entry points own stdout."""
        return not _in_modules(path, PRINT_ALLOWLIST)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag bare ``print(...)`` calls."""
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    self,
                    node,
                    "print() in library code; return strings or use the "
                    "CLI layer for output",
                )
