#!/usr/bin/env python
"""CI entry point for the repro static-analysis pass.

Runs the lint rule set over ``src/repro`` against the committed baseline
and exits non-zero on any *new* finding.  Equivalent to::

    python -m repro lint src/repro --baseline tools/lint_baseline.json

Refresh the baseline after deliberately accepting findings with::

    python tools/run_lint.py --update-baseline

Exit codes (shared with ``python -m repro lint``):

* ``0`` -- no new findings (baselined findings do not fail the run, and
  ``--update-baseline`` always exits 0 after rewriting the baseline)
* ``1`` -- at least one finding not covered by the baseline
* ``2`` -- usage or configuration error (unknown rule id, missing path,
  ``--profile`` combined with ``--select``)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_BASELINE = REPO_ROOT / "tools" / "lint_baseline.json"
DEFAULT_PATHS = [str(REPO_ROOT / "src" / "repro")]


def main(argv: list[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=DEFAULT_PATHS)
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--select", default=None)
    parser.add_argument(
        "--profile",
        choices=["all", "grad", "perf"],
        default=None,
        help="named rule family shortcut (mutually exclusive with --select)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-write the baseline from the current findings",
    )
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main

    forwarded = ["lint", *args.paths, "--baseline", args.baseline]
    forwarded += ["--format", args.format]
    if args.select:
        forwarded += ["--select", args.select]
    if args.profile:
        forwarded += ["--profile", args.profile]
    if args.update_baseline:
        forwarded.append("--write-baseline")
    return repro_main(forwarded)


if __name__ == "__main__":
    raise SystemExit(main())
