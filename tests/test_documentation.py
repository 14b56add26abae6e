"""Documentation-completeness checks.

Walks the whole ``repro`` package and asserts every public module, class,
function, and method carries a docstring — keeping the "documented public
API" deliverable true by construction.
"""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__, f"module {module.__name__} lacks a docstring"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    undocumented: list[str] = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home module
        if not inspect.getdoc(obj):
            undocumented.append(name)
            continue
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_") or not inspect.isfunction(attr):
                    continue
                if not inspect.getdoc(attr):
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, (
        f"{module.__name__} has undocumented public items: {undocumented}"
    )


def test_all_exports_resolve():
    """Every name in each module's __all__ must actually exist."""
    for module in MODULES:
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.__all__: {name}"


def test_experiments_md_is_rendered_from_its_template():
    """Every ``<!-- results: name -->`` table of EXPERIMENTS.md is what
    benchmarks/results/name.txt holds (the test keeps the name it had when
    a second copy, tools/EXPERIMENTS.template.md, was rendered into it)."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "build_experiments.py"
    done = subprocess.run(
        [sys.executable, str(tool), "--check"], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr[-2000:]
