"""Assemble EXPERIMENTS.md from the template + benchmarks/results/*.txt.

Usage:  python tools/build_experiments.py [--check]

Replaces ``{{name}}`` placeholders in ``tools/EXPERIMENTS.template.md``
with the content of ``benchmarks/results/<name>.txt`` (fenced as code)
and writes the result to ``EXPERIMENTS.md``.  ``EXPERIMENTS.md`` is a
build product: a PR writes its section in the template only.  ``--check``
(CI) writes nothing and exits 1 when ``EXPERIMENTS.md`` is not what the
template renders to.
"""

from __future__ import annotations

import difflib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEMPLATE = ROOT / "tools" / "EXPERIMENTS.template.md"
RESULTS = ROOT / "benchmarks" / "results"
OUTPUT = ROOT / "EXPERIMENTS.md"


def render() -> str:
    """The template with every ``{{name}}`` replaced by its results file."""
    missing: list[str] = []

    def substitute(match: re.Match[str]) -> str:
        name = match.group(1)
        path = RESULTS / f"{name}.txt"
        if not path.exists():
            missing.append(name)
            return f"*(results file {name}.txt not found — run the benchmarks)*"
        return "```\n" + path.read_text(encoding="utf-8").rstrip() + "\n```"

    text = TEMPLATE.read_text(encoding="utf-8")
    rendered = re.sub(r"\{\{(\w+)\}\}", substitute, text)
    if missing:
        print(f"WARNING: missing results: {', '.join(missing)}", file=sys.stderr)
    return rendered


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    rendered = render()
    if not argv:
        OUTPUT.write_text(rendered, encoding="utf-8")
        print(f"wrote {OUTPUT}")
        return 0
    current = OUTPUT.read_text(encoding="utf-8")
    if current == rendered:
        return 0
    sys.stderr.writelines(
        difflib.unified_diff(
            current.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            "EXPERIMENTS.md",
            "rendered tools/EXPERIMENTS.template.md",
            n=1,
        )
    )
    print(
        "EXPERIMENTS.md is stale: edit tools/EXPERIMENTS.template.md (or "
        "benchmarks/results/) and run python tools/build_experiments.py",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
