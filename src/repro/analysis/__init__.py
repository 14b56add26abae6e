"""Static analysis for the reproduction: lint rules + graphs + shape checking.

Complementary passes keep the embedding pipeline's invariants true as
the codebase grows:

- an **AST lint** (:mod:`repro.analysis.rules` driven by
  :mod:`repro.analysis.engine`) enforcing float32 dtype discipline,
  autograd-safe tensor usage, centralised seeded randomness, and API
  hygiene, with ``# repro: noqa[RULE]`` suppressions and a committed
  baseline so CI fails only on *new* violations;
- a **dataflow engine** (:mod:`repro.analysis.dataflow`) — intraprocedural
  reaching-definitions with loop context — powering the REP5xx hot-path
  performance rules (:mod:`repro.analysis.perf_rules`);
- a **project import/call graph** (:mod:`repro.analysis.graph`) powering
  the interprocedural REP6xx gradient-flow rules
  (:mod:`repro.analysis.grad_rules`) and the architecture-contract
  checker (:mod:`repro.analysis.contract`, ``repro archcheck``);
- a **shape/dtype abstract interpreter**
  (:mod:`repro.analysis.shapecheck`) that propagates symbolic
  ``(shape, dtype)`` through the dual-tower layer stack and rejects
  mis-sized configurations before any training run starts.

Entry points: ``repro lint`` / ``repro archcheck`` / ``repro shapecheck``
(CLI) and ``tools/run_lint.py`` (CI wrapper).
"""

from repro.analysis.baseline import (
    load_baseline,
    partition_findings,
    write_baseline,
)
from repro.analysis.contract import (
    ArchContract,
    check_contract,
    layer_of,
    load_contract,
)
from repro.analysis.engine import iter_python_files, lint_paths, lint_source
from repro.analysis.findings import Finding, Severity
from repro.analysis.graph import (
    CallGraph,
    ImportGraph,
    ProjectContext,
    build_import_graph,
    module_name_for_path,
)
from repro.analysis.reporters import render_json, render_text, summarize
from repro.analysis.rules import (
    PROJECT_RULES,
    RULES,
    LintContext,
    LintRule,
    ProjectRule,
)

# Importing the rule modules registers their rules as a side effect.
from repro.analysis import grad_rules as _grad_rules  # noqa: F401
from repro.analysis import perf_rules as _perf_rules  # noqa: F401
from repro.analysis.shapecheck import (
    AbstractTensor,
    DualTowerSpec,
    ShapeError,
    ShapeReport,
    check_dual_tower,
)

__all__ = [
    "AbstractTensor",
    "ArchContract",
    "CallGraph",
    "DualTowerSpec",
    "Finding",
    "ImportGraph",
    "LintContext",
    "LintRule",
    "PROJECT_RULES",
    "ProjectContext",
    "ProjectRule",
    "RULES",
    "Severity",
    "ShapeError",
    "ShapeReport",
    "build_import_graph",
    "check_contract",
    "check_dual_tower",
    "iter_python_files",
    "layer_of",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "load_contract",
    "module_name_for_path",
    "partition_findings",
    "render_json",
    "render_text",
    "summarize",
    "write_baseline",
]
