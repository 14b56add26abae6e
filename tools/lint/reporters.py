"""Finding reporters: grouped text for humans, JSON for tooling."""

from __future__ import annotations

import json
from collections.abc import Sequence

from .findings import Finding, Severity

__all__ = ["render_json", "render_text", "summarize"]


def summarize(findings: Sequence[Finding]) -> dict[str, int]:
    """Counts by severity plus the total."""
    errors = sum(1 for f in findings if f.severity == Severity.ERROR)
    warnings = sum(1 for f in findings if f.severity == Severity.WARNING)
    return {"total": len(findings), "errors": errors, "warnings": warnings}


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, findings grouped by file."""
    if not findings:
        return "no findings"
    by_file: dict[str, list[Finding]] = {}
    for finding in findings:
        by_file.setdefault(finding.path, []).append(finding)
    blocks: list[str] = []
    for path, group in by_file.items():
        lines = [path]
        for f in group:
            lines.append(
                f"  {f.line}:{f.col}  {f.severity:7s} {f.rule}  {f.message}"
            )
        blocks.append("\n".join(lines))
    counts = summarize(findings)
    blocks.append(
        f"{counts['total']} finding(s): "
        f"{counts['errors']} error(s), {counts['warnings']} warning(s)"
    )
    return "\n\n".join(blocks)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report: summary plus one record per finding."""
    document = {
        "version": 1,
        "summary": summarize(findings),
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(document, indent=2)
