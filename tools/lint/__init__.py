"""The repository's own linter: AST rules + the architecture contract.

A stdlib-only development tool, kept outside ``src/repro`` because no
lookup imports it.  What is here is what DESIGN.md §8's audit kept:

- the **rule engine** (:mod:`lint.engine`) with ``# repro: noqa[RULE]``
  suppressions — an inline ``noqa`` with its reason is the one way to
  accept a finding;
- **REP1xx** float32 dtype discipline and **REP4xx** API hygiene
  (:mod:`lint.rules`);
- **REP5xx** hot-path performance rules (:mod:`lint.perf_rules`) on the
  intraprocedural **dataflow** pass they need (:mod:`lint.dataflow`);
- the **import graph** with Tarjan cycle detection (:mod:`lint.graph`)
  and the ``tools/arch_contract.toml`` check, **ARC00x**
  (:mod:`lint.contract`).

One entry point runs all of it: ``python tools/run_lint.py``.
"""

from .contract import CONTRACT_RULES, load_contract
from .engine import check_paths, iter_python_files, lint_source
from .findings import Finding, Severity
from .reporters import render_json, render_text, summarize
from .rules import RULES

# Importing the module registers its rules as a side effect.
from . import perf_rules as _perf_rules  # noqa: F401

__all__ = [
    "CONTRACT_RULES",
    "Finding",
    "RULES",
    "Severity",
    "check_paths",
    "iter_python_files",
    "lint_source",
    "load_contract",
    "render_json",
    "render_text",
    "summarize",
]
