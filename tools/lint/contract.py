"""Architecture contract: declared layering enforced over the import graph.

The contract lives in ``tools/arch_contract.toml`` and declares, for each
first-level package under the root (``index``, ``nn``, ``lookup``, ...),
which other first-level packages it may import from **at runtime**.
Intra-package imports are always allowed; typing-only imports (guarded by
``if TYPE_CHECKING:``) are exempt.  ``tools/run_lint.py`` builds the
import graph of the tree it lints, checks every runtime edge against the
contract, and exits 1 on any violation, so a layering regression (e.g.
``index`` importing ``lookup``) fails CI before review.

Violations are reported as :class:`~lint.findings.Finding` records with
their own stable rule ids, through the same reporters as the lint rules:

- ``ARC001`` (error) — an undeclared cross-layer runtime import;
- ``ARC002`` (error) — a module-level runtime import cycle;
- ``ARC003`` (error) — a module whose layer has no contract entry.
"""

from __future__ import annotations

import tomllib
from pathlib import Path

from .findings import Finding, Severity
from .graph import ImportGraph

__all__ = [
    "ArchContract",
    "CONTRACT_RULES",
    "check_contract",
    "layer_of",
    "load_contract",
]

#: Rule ids of the contract checks (selectable like the lint rules).
CONTRACT_RULES: tuple[str, ...] = ("ARC001", "ARC002", "ARC003")

#: Layer name used for the root package's own ``__init__``.
ROOT_LAYER = "__root__"


class ArchContract:
    """Parsed contract: per-layer allowed dependencies + cycle policy."""

    def __init__(
        self,
        root: str,
        layers: dict[str, frozenset[str]],
        forbid_cycles: bool = True,
    ):
        self.root = root
        self.layers = layers
        self.forbid_cycles = forbid_cycles

    def allowed(self, layer: str) -> frozenset[str] | None:
        """Declared dependencies of ``layer`` (None when undeclared)."""
        return self.layers.get(layer)


def load_contract(path: str | Path) -> ArchContract:
    """Load and validate a TOML contract file.

    Raises ``FileNotFoundError`` for a missing file and ``ValueError``
    for a structurally invalid one — a malformed contract must never
    silently allow everything.
    """
    file_path = Path(path)
    document = tomllib.loads(file_path.read_text(encoding="utf-8"))
    project = document.get("project", {})
    if not isinstance(project, dict):
        raise ValueError(f"malformed [project] table in {file_path}")
    root = str(project.get("root", "repro"))
    forbid_cycles = bool(project.get("forbid_cycles", True))
    raw_layers = document.get("layers")
    if not isinstance(raw_layers, dict) or not raw_layers:
        raise ValueError(f"missing or empty [layers] table in {file_path}")
    layers: dict[str, frozenset[str]] = {}
    for name, deps in raw_layers.items():
        if not isinstance(deps, list) or not all(
            isinstance(d, str) for d in deps
        ):
            raise ValueError(
                f"layer {name!r} must map to a list of layer names "
                f"in {file_path}"
            )
        unknown = set(deps) - set(raw_layers)
        if unknown:
            raise ValueError(
                f"layer {name!r} depends on undeclared layer(s) "
                f"{sorted(unknown)} in {file_path}"
            )
        layers[name] = frozenset(deps)
    return ArchContract(root=root, layers=layers, forbid_cycles=forbid_cycles)


def layer_of(module: str, root: str) -> str:
    """First-level layer a dotted module belongs to.

    ``repro.index.pq`` → ``index``; ``repro.cli`` → ``cli``; the root
    package itself → :data:`ROOT_LAYER`.  Modules outside the root keep
    their first path component as a layer name so fixture trees work.
    """
    parts = module.split(".")
    if parts[0] == root:
        parts = parts[1:]
    if not parts:
        return ROOT_LAYER
    return parts[0]


def check_contract(graph: ImportGraph, contract: ArchContract) -> list[Finding]:
    """Every contract violation in ``graph``, as sorted Finding records."""
    findings: list[Finding] = []
    undeclared_reported: set[str] = set()
    for edge in graph.edges:
        if not edge.runtime:
            continue
        src_layer = layer_of(edge.src, contract.root)
        dst_layer = layer_of(edge.dst, contract.root)
        src_info = graph.modules[edge.src]
        allowed = contract.allowed(src_layer)
        if allowed is None:
            if src_layer not in undeclared_reported:
                undeclared_reported.add(src_layer)
                findings.append(
                    Finding(
                        rule="ARC003",
                        path=src_info.path,
                        line=edge.lineno,
                        col=0,
                        severity=Severity.ERROR,
                        message=(
                            f"layer {src_layer!r} (module {edge.src}) has no "
                            "entry in the architecture contract"
                        ),
                    )
                )
            continue
        if dst_layer == src_layer or dst_layer in allowed:
            continue
        findings.append(
            Finding(
                rule="ARC001",
                path=src_info.path,
                line=edge.lineno,
                col=0,
                severity=Severity.ERROR,
                message=(
                    f"layer violation: {src_layer!r} may not import from "
                    f"{dst_layer!r} ({edge.src} -> {edge.dst}; allowed: "
                    f"{sorted(allowed) or 'nothing'})"
                ),
            )
        )
    if contract.forbid_cycles:
        for cycle in graph.import_cycles_with_lines():
            members, lineno, path = cycle
            findings.append(
                Finding(
                    rule="ARC002",
                    path=path,
                    line=lineno,
                    col=0,
                    severity=Severity.ERROR,
                    message=(
                        "runtime import cycle: " + " -> ".join(members + [members[0]])
                    ),
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
