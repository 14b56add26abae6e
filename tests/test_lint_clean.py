"""Tier-1 gate: the library source must lint clean against the baseline.

Runs the full rule set over ``src/repro`` once and fails on any finding
whose fingerprint is not frozen in ``tools/lint_baseline.json``.  New
deliberate violations must either be fixed, suppressed inline with
``# repro: noqa[RULE]`` and a justification, or consciously accepted via
``python tools/run_lint.py --update-baseline``.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, load_baseline, partition_findings, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_TREE = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "tools" / "lint_baseline.json"


@pytest.fixture(scope="module")
def findings():
    """One lint pass over the source tree, shared by every test here."""
    return lint_paths([SOURCE_TREE])


def test_source_tree_lints_clean(findings):
    """No new lint findings in src/repro beyond the committed baseline."""
    new, _known = partition_findings(findings, load_baseline(BASELINE))
    assert not new, "new lint findings:\n" + render_text(new)


def test_baseline_has_no_stale_entries(findings):
    """Every baselined fingerprint still corresponds to a real finding.

    A stale entry means a violation was fixed without burning it out of
    the baseline — harmless for CI but misleading for reviewers.
    """
    current = {f.fingerprint for f in findings}
    stale = load_baseline(BASELINE) - current
    assert not stale, f"stale baseline fingerprints: {sorted(stale)}"


def test_baseline_contains_no_errors(findings):
    """Only warnings may be baselined; error-severity rules must be fixed."""
    _new, known = partition_findings(findings, load_baseline(BASELINE))
    errors = [f for f in known if f.severity == "error"]
    assert not errors, "error-severity findings in baseline:\n" + render_text(errors)
