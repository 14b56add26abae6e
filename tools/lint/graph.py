"""Whole-project import graph over the ``repro`` package.

:class:`ImportGraph` has one node per module (dotted name derived from
the ``repro/...`` path tail) and one resolved edge per project-internal
import (``import x`` / ``from x import y``, relative imports included).
Edges know whether they are *runtime* or typing-only (guarded by ``if
TYPE_CHECKING:``), and the graph reports import cycles (strongly
connected components over runtime edges).  The architecture-contract
checker (:mod:`lint.contract`) is its one consumer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .rules import module_tail

__all__ = [
    "ImportEdge",
    "ImportGraph",
    "ModuleInfo",
    "build_import_graph",
    "module_name_for_path",
]


def module_name_for_path(path: str) -> str:
    """Dotted module name from a source path's ``repro/...`` tail.

    ``src/repro/index/pq.py`` → ``repro.index.pq``; package
    ``__init__.py`` files name the package itself.  Paths without a
    ``repro/`` component fall back to their full slash-to-dot form so
    fixture trees under any root still get distinct, stable names.
    """
    tail = module_tail(path)
    if tail.endswith(".py"):
        tail = tail[: -len(".py")]
    parts = [p for p in tail.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class ImportEdge:
    """One resolved project-internal dependency."""

    src: str  #: importing module (dotted)
    dst: str  #: imported module (dotted)
    lineno: int
    runtime: bool  #: False when guarded by ``if TYPE_CHECKING:``


@dataclass
class ModuleInfo:
    """One parsed source module."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool = False


class ImportGraph:
    """Module nodes + resolved project-internal edges."""

    def __init__(self, modules: dict[str, ModuleInfo], edges: list[ImportEdge]):
        self.modules = modules
        self.edges = edges

    def runtime_imports(self, src: str) -> set[str]:
        """Modules ``src`` depends on at import/run time (excluding itself)."""
        return {
            e.dst
            for e in self.edges
            if e.src == src and e.runtime and e.dst != src
        }

    def import_cycles_with_lines(
        self,
    ) -> list[tuple[list[str], int, str]]:
        """Cycles anchored to a source location for reporting.

        Each entry is ``(members, lineno, path)`` where the line is the
        first member's first runtime import of another member.
        """
        anchored: list[tuple[list[str], int, str]] = []
        for members in self.find_cycles():
            member_set = set(members)
            anchor = members[0]
            lineno = 1
            for edge in self.edges:
                if edge.src == anchor and edge.dst in member_set and edge.runtime:
                    lineno = edge.lineno
                    break
            anchored.append((members, lineno, self.modules[anchor].path))
        return anchored

    def find_cycles(self) -> list[list[str]]:
        """Import cycles: SCCs of size > 1 (plus self-loops), sorted.

        Only runtime edges participate — a typing-only back-reference is
        not a load-time cycle.
        """
        adjacency: dict[str, set[str]] = {name: set() for name in self.modules}
        for edge in self.edges:
            if edge.runtime:
                adjacency[edge.src].add(edge.dst)
        return _strongly_connected_cycles(adjacency)


def _strongly_connected_cycles(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan SCC, returning only components that form cycles."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan to survive deep graphs without recursion limits.
        work: list[tuple[str, list[str]]] = [(node, sorted(adjacency[node]))]
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, neighbours = work[-1]
            advanced = False
            while neighbours:
                nxt = neighbours.pop(0)
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, sorted(adjacency[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[current] = min(lowlink[current], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1 or current in adjacency[current]:
                    cycles.append(sorted(component))

    for name in sorted(adjacency):
        if name not in index:
            strongconnect(name)
    return sorted(cycles)


class _ModuleImportVisitor:
    """Resolve one module's imports to project-internal edges."""

    def __init__(self, module: ModuleInfo, known: set[str]):
        self.module = module
        self.known = known
        self.edges: list[ImportEdge] = []

    def collect(self) -> None:
        self._walk(self.module.tree.body, runtime=True)

    def _walk(self, body: list[ast.stmt], runtime: bool) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Import):
                self._handle_import(stmt, runtime)
            elif isinstance(stmt, ast.ImportFrom):
                self._handle_import_from(stmt, runtime)
            elif isinstance(stmt, ast.If):
                guard_typing = _is_type_checking_test(stmt.test)
                self._walk(stmt.body, runtime=runtime and not guard_typing)
                self._walk(stmt.orelse, runtime=runtime)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Deferred, but still a runtime dependency once called.
                self._walk(stmt.body, runtime=runtime)
            elif isinstance(stmt, (ast.With, ast.AsyncWith, ast.Try)):
                inner: list[ast.stmt] = list(getattr(stmt, "body", []))
                for handler in getattr(stmt, "handlers", []):
                    inner.extend(handler.body)
                inner.extend(getattr(stmt, "orelse", []))
                inner.extend(getattr(stmt, "finalbody", []))
                self._walk(inner, runtime=runtime)
            elif isinstance(stmt, ast.ClassDef):
                self._walk(stmt.body, runtime=runtime)

    def _handle_import(self, stmt: ast.Import, runtime: bool) -> None:
        for alias in stmt.names:
            target = self._resolve(alias.name)
            if target is not None:
                self._add_edge(target, stmt.lineno, runtime)

    def _handle_import_from(self, stmt: ast.ImportFrom, runtime: bool) -> None:
        base = self._resolve_from_base(stmt)
        if base is None:
            return
        for alias in stmt.names:
            # ``from pkg import name``: the submodule if there is one, else
            # an attribute of ``pkg`` itself.
            submodule = f"{base}.{alias.name}"
            target = submodule if submodule in self.known else base
            self._add_edge(target, stmt.lineno, runtime)

    def _resolve_from_base(self, stmt: ast.ImportFrom) -> str | None:
        if stmt.level == 0:
            return self._resolve(stmt.module or "")
        parts = self.module.name.split(".")
        anchor = parts if self.module.is_package else parts[:-1]
        up = stmt.level - 1
        if up > len(anchor):
            return None
        anchor = anchor[: len(anchor) - up] if up else anchor
        dotted = ".".join(anchor + (stmt.module or "").split("."))
        return self._resolve(dotted.rstrip("."))

    def _resolve(self, dotted: str) -> str | None:
        """Longest known project module that is ``dotted`` or a prefix of it."""
        parts = dotted.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in self.known:
                return candidate
            parts.pop()
        return None

    def _add_edge(self, dst: str, lineno: int, runtime: bool) -> None:
        self.edges.append(
            ImportEdge(
                src=self.module.name,
                dst=dst,
                lineno=lineno,
                runtime=runtime,
            )
        )


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _parse_modules(sources: list[tuple[str, str]]) -> dict[str, ModuleInfo]:
    modules: dict[str, ModuleInfo] = {}
    for path, source in sources:
        posix = path.replace("\\", "/")
        try:
            tree = ast.parse(source, filename=posix)
        except SyntaxError:
            continue  # the per-file lint reports REP000 for this file
        name = module_name_for_path(posix)
        modules[name] = ModuleInfo(
            name=name,
            path=posix,
            tree=tree,
            is_package=posix.endswith("/__init__.py"),
        )
    return modules


def build_import_graph(sources: list[tuple[str, str]]) -> ImportGraph:
    """Build the project import graph from ``(path, source)`` pairs."""
    modules = _parse_modules(sources)
    known = set(modules)
    edges: list[ImportEdge] = []
    for module in modules.values():
        visitor = _ModuleImportVisitor(module, known)
        visitor.collect()
        edges.extend(visitor.edges)
    return ImportGraph(modules, edges)
