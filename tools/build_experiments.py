"""Refresh the results tables of EXPERIMENTS.md from benchmarks/results/*.txt.

Usage:  python tools/build_experiments.py [--check]

``EXPERIMENTS.md`` is the only copy of its prose: a PR writes its section
there, once.  Each results table is a fenced block under a marker line,

    <!-- results: table5_services -->
    ```
    ...content of benchmarks/results/table5_services.txt...
    ```

and this tool rewrites every such block in place from its results file.
``--check`` (CI, tier-1) writes nothing and exits 1 when a block is not
what its file holds, or a results file has no block; text outside the
marked blocks is never compared.
"""

from __future__ import annotations

import difflib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
OUTPUT = ROOT / "EXPERIMENTS.md"

#: A marker line and the fenced block that follows it.
_BLOCK = re.compile(
    r"^(<!-- results: (\w+) -->\n)```\n.*?^```$", re.MULTILINE | re.DOTALL
)


def refresh(text: str) -> str:
    """``text`` with every marked block rewritten from its results file."""

    def block(match: re.Match[str]) -> str:
        path = RESULTS / f"{match.group(2)}.txt"
        if not path.exists():
            raise FileNotFoundError(
                f"no {path.relative_to(ROOT)} for marker {match.group(1).strip()}"
            )
        body = path.read_text(encoding="utf-8").rstrip()
        return f"{match.group(1)}```\n{body}\n```"

    return _BLOCK.sub(block, text)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    current = OUTPUT.read_text(encoding="utf-8")
    marked = {name for _, name in _BLOCK.findall(current)}
    unmarked = sorted({p.stem for p in RESULTS.glob("*.txt")} - marked)
    if unmarked:
        # A table whose marker was lost would never be compared again.
        print(f"EXPERIMENTS.md has no results block for: {unmarked}", file=sys.stderr)
        return 1
    try:
        refreshed = refresh(current)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    if not argv:
        OUTPUT.write_text(refreshed, encoding="utf-8")
        print(f"refreshed {len(marked)} results blocks in {OUTPUT}")
        return 0
    if current == refreshed:
        return 0
    sys.stderr.writelines(
        difflib.unified_diff(
            current.splitlines(keepends=True),
            refreshed.splitlines(keepends=True),
            "EXPERIMENTS.md",
            "benchmarks/results",
            n=1,
        )
    )
    print(
        "a results table in EXPERIMENTS.md is stale: run "
        "python tools/build_experiments.py",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
