"""Tier-1 gate: ``src/repro`` passes the repository's linter.

The same call ``python tools/run_lint.py`` makes: every rule over every
file, then the layer contract over their import graph.  A new finding is
fixed, or suppressed inline with ``# repro: noqa[RULE]`` and its reason.
"""

import re
from pathlib import Path

from lint import CONTRACT_RULES, RULES, check_paths, load_contract, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_TREE = REPO_ROOT / "src" / "repro"
CONTRACT = REPO_ROOT / "tools" / "arch_contract.toml"


def test_source_tree_lints_clean():
    """No rule finding and no contract violation in src/repro."""
    findings = check_paths([SOURCE_TREE], contract=load_contract(CONTRACT))
    assert not findings, "lint findings:\n" + render_text(findings)


def test_every_noqa_names_a_registered_rule():
    """A ``# repro: noqa[RULE]`` whose rule was deleted suppresses nothing
    and reads as if something still checked the line."""
    marker = re.compile(r"#\s*repro:\s*noqa\[([^\]]*)\]", re.IGNORECASE)
    known = {*RULES, *CONTRACT_RULES}
    dead = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {rule}"
        for path in sorted(SOURCE_TREE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in marker.finditer(line)
        for rule in (r.strip().upper() for r in match.group(1).split(","))
        if rule not in known
    ]
    assert not dead, "noqa markers naming unregistered rules:\n" + "\n".join(dead)
