#!/usr/bin/env python
"""The repository's lint gate: rules and layer contract in one run.

Runs the ``tools/lint`` rule set over ``src/repro`` and checks the import
graph of the same files against ``tools/arch_contract.toml``.  A finding
is fixed or carries an inline ``# repro: noqa[RULE]`` with its reason;
there is no other way to accept one.

Exit codes:

* ``0`` -- no findings
* ``1`` -- at least one finding (a REPxxx rule or an ARC00x contract
  violation)
* ``2`` -- usage or configuration error (unknown rule id, missing path,
  missing or malformed contract)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import lint  # the package beside this script (tools/ is sys.path[0])

TOOLS = Path(__file__).resolve().parent
DEFAULT_PATHS = [str(TOOLS.parent / "src" / "repro")]
CONTRACT = TOOLS / "arch_contract.toml"


def main(argv: list[str] | None = None) -> int:
    """Run the gate; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=DEFAULT_PATHS)
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument(
        "--select", default=None, help="comma-separated rule ids/prefixes"
    )
    args = parser.parse_args(argv)
    try:
        findings = lint.check_paths(
            args.paths,
            contract=lint.load_contract(CONTRACT),
            select=args.select.split(",") if args.select else None,
        )
    except (FileNotFoundError, KeyError, ValueError) as exc:
        # str(KeyError) wraps the message in quotes; print the bare text.
        print(exc.args[0] if isinstance(exc, KeyError) else exc, file=sys.stderr)
        return 2
    render = lint.render_json if args.format == "json" else lint.render_text
    print(render(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
