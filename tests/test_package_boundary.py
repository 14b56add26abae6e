"""``src/repro`` holds the lookup system, not its linter or its test harness.

The linter (``tools/lint``, run by ``tools/run_lint.py``) is a development
tool no lookup imports, and the property / fault-injection harness lives
in ``tests/support``; these tests keep both from drifting back in.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro


def test_the_package_has_no_analysis_subpackage():
    names = {
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    }
    assert not [
        n for n in names if n.split(".")[1] in ("analysis", "lint", "testing")
    ]


def test_importing_the_cli_and_the_engine_loads_no_linter_module():
    # A fresh interpreter: this process has ``lint`` and ``tests.support``
    # loaded for its own tests.
    probe = (
        "import sys, repro.cli, repro.serving\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.split('.')[0] in ('lint', 'run_lint', 'tests')\n"
        "          or m.startswith('repro.analysis')]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr[-2000:]
