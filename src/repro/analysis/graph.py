"""Whole-project import/call graph over the ``repro`` package.

Three structures are built from a set of parsed source files:

- :class:`ImportGraph` — one node per module (dotted name derived from
  the ``repro/...`` path tail), with resolved **import edges** (``import
  x`` / ``from x import y``, relative imports included) and **call
  edges** (``alias.attr(...)`` through an imported module).  Edges know
  whether they are *runtime* (module import time) or typing-only
  (guarded by ``if TYPE_CHECKING:``), and the graph can report import
  cycles (strongly connected components over runtime edges).
- :class:`CallGraph` — a function-level graph keyed by
  ``(module, qualname)``, resolving ``self.method(...)`` (through the
  project class hierarchy), module-level ``helper(...)`` calls, and
  cross-module ``mod.func(...)`` / from-imported ``func(...)`` calls.
  Calls through instance attributes (``self.child(x)`` where ``child``
  is a sub-module object) are not resolvable statically and are skipped.
- :class:`ProjectContext` — the bundle handed to project-scoped lint
  rules: parsed modules plus lazily-built import and call graphs.

The architecture-contract checker (:mod:`repro.analysis.contract`) and
the interprocedural gradient-flow rule (REP602) consume these.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.rules import module_tail

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "ImportEdge",
    "ImportGraph",
    "ModuleInfo",
    "ProjectContext",
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
    kind: str  #: ``"import"`` or ``"call"``


@dataclass
class ModuleInfo:
    """One parsed source module."""

    name: str
    path: str
    tree: ast.Module
    source: str
    lines: tuple[str, ...] = ()
    is_package: bool = False


@dataclass(frozen=True)
class _Binding:
    """What a local name refers to after an import statement."""

    module: str  #: project module the name (or its owner) lives in
    attr: str | None  #: None when the name *is* the module


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
                if (
                    edge.src == anchor
                    and edge.dst in member_set
                    and edge.kind == "import"
                    and edge.runtime
                ):
                    lineno = edge.lineno
                    break
            anchored.append((members, lineno, self.modules[anchor].path))
        return anchored

    def find_cycles(self) -> list[list[str]]:
        """Import cycles: SCCs of size > 1 (plus self-loops), sorted.

        Only runtime ``import``-kind edges participate — a typing-only
        back-reference is not a load-time cycle.
        """
        adjacency: dict[str, set[str]] = {name: set() for name in self.modules}
        for edge in self.edges:
            if edge.kind != "import" or not edge.runtime:
                continue
            if edge.src in adjacency and edge.dst in adjacency:
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
    """Resolve one module's imports to project-internal edges + bindings."""

    def __init__(self, module: ModuleInfo, known: set[str]):
        self.module = module
        self.known = known
        self.edges: list[ImportEdge] = []
        self.bindings: dict[str, _Binding] = {}

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
            if target is None:
                continue
            self._add_edge(target, stmt.lineno, runtime)
            local = alias.asname or alias.name.split(".")[0]
            if alias.asname or "." not in alias.name:
                self.bindings[local] = _Binding(module=target, attr=None)

    def _handle_import_from(self, stmt: ast.ImportFrom, runtime: bool) -> None:
        base = self._resolve_from_base(stmt)
        if base is None:
            return
        for alias in stmt.names:
            if alias.name == "*":
                self._add_edge(base, stmt.lineno, runtime)
                continue
            submodule = f"{base}.{alias.name}"
            local = alias.asname or alias.name
            if submodule in self.known:
                self._add_edge(submodule, stmt.lineno, runtime)
                self.bindings[local] = _Binding(module=submodule, attr=None)
            else:
                self._add_edge(base, stmt.lineno, runtime)
                self.bindings[local] = _Binding(module=base, attr=alias.name)

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
                kind="import",
            )
        )

    def call_edges(self) -> list[ImportEdge]:
        """Attribute-call edges: ``alias.attr(...)`` through a bound module."""
        edges: list[ImportEdge] = []
        for node in ast.walk(self.module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.bindings
            ):
                binding = self.bindings[func.value.id]
                if binding.attr is None:
                    edges.append(
                        ImportEdge(
                            src=self.module.name,
                            dst=binding.module,
                            lineno=node.lineno,
                            runtime=True,
                            kind="call",
                        )
                    )
        return edges


def _terminal_name(node: ast.expr) -> str | None:
    """Last component of a Name/Attribute chain (``nn.Module`` → ``Module``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


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
            source=source,
            lines=tuple(source.splitlines()),
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
        edges.extend(visitor.call_edges())
    return ImportGraph(modules, edges)


# -- function-level call graph ---------------------------------------------------


@dataclass
class FunctionInfo:
    """One function/method definition in the project."""

    module: str
    qualname: str  #: ``Class.method`` or bare function name
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner_class: str | None = None


@dataclass
class _ClassInfo:
    module: str
    name: str
    base_keys: list[tuple[str, str]] = field(default_factory=list)
    base_names: list[str] = field(default_factory=list)
    methods: set[str] = field(default_factory=set)


class CallGraph:
    """Function-level call graph with a project class hierarchy."""

    def __init__(self, modules: dict[str, ModuleInfo]):
        self.modules = modules
        self.functions: dict[tuple[str, str], FunctionInfo] = {}
        self.edges: dict[tuple[str, str], set[tuple[str, str]]] = {}
        self._classes: dict[tuple[str, str], _ClassInfo] = {}
        self._bindings: dict[str, dict[str, _Binding]] = {}
        self._build()

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        known = set(self.modules)
        for module in self.modules.values():
            visitor = _ModuleImportVisitor(module, known)
            visitor.collect()
            self._bindings[module.name] = visitor.bindings
            self._collect_defs(module)
        for info in list(self.functions.values()):
            self.edges[(info.module, info.qualname)] = self._resolve_calls(info)

    def _collect_defs(self, module: ModuleInfo) -> None:
        def visit(body: list[ast.stmt], class_name: str | None) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = (
                        f"{class_name}.{stmt.name}" if class_name else stmt.name
                    )
                    self.functions[(module.name, qualname)] = FunctionInfo(
                        module=module.name,
                        qualname=qualname,
                        node=stmt,
                        owner_class=class_name,
                    )
                    if class_name:
                        self._classes[(module.name, class_name)].methods.add(
                            stmt.name
                        )
                elif isinstance(stmt, ast.ClassDef):
                    info = _ClassInfo(module=module.name, name=stmt.name)
                    for base in stmt.bases:
                        key = self._resolve_class_base(module.name, base)
                        if key is not None:
                            info.base_keys.append(key)
                        terminal = _terminal_name(base)
                        if terminal:
                            info.base_names.append(terminal)
                    self._classes[(module.name, stmt.name)] = info
                    visit(stmt.body, stmt.name)

        visit(module.tree.body, None)

    def _resolve_class_base(
        self, module: str, base: ast.expr
    ) -> tuple[str, str] | None:
        bindings = self._bindings.get(module, {})
        if isinstance(base, ast.Name):
            binding = bindings.get(base.id)
            if binding is not None and binding.attr is not None:
                return (binding.module, binding.attr)
            return (module, base.id)
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            binding = bindings.get(base.value.id)
            if binding is not None and binding.attr is None:
                return (binding.module, base.attr)
        return None

    def _resolve_calls(self, info: FunctionInfo) -> set[tuple[str, str]]:
        callees: set[tuple[str, str]] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            key = self.resolve_call(info, node)
            if key is not None:
                callees.add(key)
        return callees

    def resolve_call(
        self, info: FunctionInfo, node: ast.Call
    ) -> tuple[str, str] | None:
        """Project function key one call inside ``info`` dispatches to.

        Resolves bare/from-imported names, ``mod.func(...)`` through
        module bindings, and ``self.method(...)`` through the class
        hierarchy.  ``None`` when the callee is not statically
        resolvable to a project function.
        """
        bindings = self._bindings.get(info.module, {})
        func = node.func
        if isinstance(func, ast.Name):
            binding = bindings.get(func.id)
            if binding is not None and binding.attr is not None:
                key = (binding.module, binding.attr)
                if key in self.functions:
                    return key
            elif (info.module, func.id) in self.functions:
                return (info.module, func.id)
            return None
        if isinstance(func, ast.Attribute):
            root = func.value
            if isinstance(root, ast.Name) and root.id == "self":
                if info.owner_class is not None:
                    return self._lookup_method(
                        (info.module, info.owner_class), func.attr
                    )
                return None
            if isinstance(root, ast.Name) and root.id in bindings:
                binding = bindings[root.id]
                if binding.attr is None:
                    key = (binding.module, func.attr)
                    if key in self.functions:
                        return key
        return None

    def _lookup_method(
        self, class_key: tuple[str, str], method: str
    ) -> tuple[str, str] | None:
        """Find ``method`` on the class or (transitively) its project bases."""
        seen: set[tuple[str, str]] = set()
        queue = [class_key]
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.add(key)
            info = self._classes.get(key)
            if info is None:
                continue
            if method in info.methods:
                return (key[0], f"{key[1]}.{method}")
            queue.extend(info.base_keys)
        return None

    # -- queries ---------------------------------------------------------------

    def is_module_subclass(self, module: str, class_name: str) -> bool:
        """Whether the class (transitively) inherits an ``nn`` ``Module``."""
        seen: set[tuple[str, str]] = set()
        queue = [(module, class_name)]
        first = True
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.add(key)
            # A resolved base literally named ``Module`` is the root marker
            # (the class itself being named Module does not make it one).
            if key[1] == "Module" and not first:
                return True
            first = False
            info = self._classes.get(key)
            if info is None:
                continue
            if "Module" in info.base_names:
                return True
            queue.extend(info.base_keys)
        return False

    def reachable_from(
        self, seeds: set[tuple[str, str]]
    ) -> set[tuple[str, str]]:
        """Transitive closure of the call edges starting at ``seeds``."""
        reached = set(seeds)
        queue = list(seeds)
        while queue:
            key = queue.pop(0)
            for callee in self.edges.get(key, ()):
                if callee not in reached:
                    reached.add(callee)
                    queue.append(callee)
        return reached


class ProjectContext:
    """Everything a project-scoped lint rule needs for one run."""

    def __init__(self, sources: list[tuple[str, str]]):
        self.modules = _parse_modules(sources)
        self._import_graph: ImportGraph | None = None
        self._call_graph: CallGraph | None = None

    @classmethod
    def from_sources(cls, sources: list[tuple[str, str]]) -> "ProjectContext":
        return cls(sources)

    @property
    def import_graph(self) -> ImportGraph:
        if self._import_graph is None:
            known = set(self.modules)
            edges: list[ImportEdge] = []
            for module in self.modules.values():
                visitor = _ModuleImportVisitor(module, known)
                visitor.collect()
                edges.extend(visitor.edges)
                edges.extend(visitor.call_edges())
            self._import_graph = ImportGraph(self.modules, edges)
        return self._import_graph

    @property
    def call_graph(self) -> CallGraph:
        if self._call_graph is None:
            self._call_graph = CallGraph(self.modules)
        return self._call_graph
