"""Lint driver: walk files, parse, run rules, honour suppressions.

The engine parses each Python file once, hands the AST to every rule
whose ``applies_to`` matches the path and drops the findings a ``# repro:
noqa[RULE]`` on their line suppresses.  :func:`check_paths` is the whole
gate — the rules over every file, then the architecture contract
(:mod:`lint.contract`) over the import graph of the same sources — and
what ``tools/run_lint.py`` and ``tests/test_lint_clean.py`` both call.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Sequence
from pathlib import Path

from .contract import CONTRACT_RULES, ArchContract, check_contract
from .findings import Finding, Severity
from .graph import build_import_graph
from .rules import RULES, LintContext, LintRule

__all__ = ["check_paths", "iter_python_files", "lint_source"]

#: ``# repro: noqa`` (all rules) or ``# repro: noqa[REP101,REP501]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


def _noqa_for_line(line: str) -> frozenset[str] | None:
    """Suppressed rule ids on ``line``.

    Returns ``None`` when the line has no noqa marker, an empty frozenset
    for a blanket ``# repro: noqa``, and the named ids otherwise.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip().upper() for r in rules.split(",") if r.strip())


def _is_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    if not 1 <= finding.line <= len(lines):
        return False
    suppressed = _noqa_for_line(lines[finding.line - 1])
    if suppressed is None:
        return False
    return not suppressed or finding.rule in suppressed


def _selected_rules(chosen: set[str]) -> list[LintRule]:
    return [rule for rule_id, rule in RULES.items() if rule_id in chosen]


def _select_ids(select: Iterable[str] | None) -> set[str]:
    """Resolve ``--select`` tokens (ids or prefixes) to known rule ids.

    ``REP`` matches every lint rule, ``ARC`` the contract checks; a token
    that matches nothing is an error.
    """
    known = (*RULES, *CONTRACT_RULES)
    if select is None:
        return set(known)
    chosen: set[str] = set()
    for rule_id in select:
        wanted = rule_id.strip().upper()
        matched = [k for k in known if k.startswith(wanted)]
        if not matched:
            raise KeyError(f"unknown rule id or prefix: {rule_id!r}")
        chosen.update(matched)
    return chosen


def _lint_one(source: str, posix: str, rules: Iterable[LintRule]) -> list[Finding]:
    """Noqa-filtered findings of ``rules`` on one file.

    A syntax error yields a single ``REP000`` error finding rather than
    raising, so one broken file cannot hide findings in the rest of a run.
    """
    try:
        tree = ast.parse(source, filename=posix)
    except SyntaxError as exc:
        return [
            Finding(
                rule="REP000",
                path=posix,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
            )
        ]
    lines = source.splitlines()
    ctx = LintContext(path=posix, tree=tree)
    return [
        finding
        for rule in rules
        if rule.applies_to(posix)
        for finding in rule.check(ctx)
        if not _is_suppressed(finding, lines)
    ]


def _sort_key(finding: Finding) -> tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


def lint_source(
    source: str,
    path: str,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one in-memory source string as if it lived at ``path``."""
    rules = _selected_rules(_select_ids(select))
    return sorted(_lint_one(source, path.replace("\\", "/"), rules), key=_sort_key)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deterministic ``.py`` list.

    Directory walks skip ``__pycache__`` and hidden directories/files
    (leading dot) at any depth below the argument; explicitly named files
    are always included.  The result is de-duplicated and sorted so runs
    are stable regardless of argument order or filesystem enumeration.
    """
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not candidate.is_file():
                    continue
                relative_parts = candidate.relative_to(path).parts
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in relative_parts
                ):
                    continue
                out.add(candidate)
        elif path.suffix == ".py" and path.is_file():
            out.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out)


def _display_path(path: Path) -> str:
    """Posix path relative to the current directory when possible."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_paths(
    paths: Iterable[str | Path],
    contract: ArchContract | None = None,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Every finding under ``paths``: lint rules, then the layer contract.

    Each file is read once; the selected rules run file by file and, when
    a ``contract`` is given, the selected ARC00x checks run over the
    import graph of the same sources.  Sorted by location.
    """
    chosen = _select_ids(select)
    rules = _selected_rules(chosen)
    sources = [
        (_display_path(file_path), file_path.read_text(encoding="utf-8"))
        for file_path in iter_python_files(paths)
    ]
    findings = [
        finding
        for display, source in sources
        for finding in _lint_one(source, display, rules)
    ]
    if contract is not None and chosen & set(CONTRACT_RULES):
        findings.extend(
            finding
            for finding in check_contract(build_import_graph(sources), contract)
            if finding.rule in chosen
        )
    return sorted(findings, key=_sort_key)

