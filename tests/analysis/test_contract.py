"""Architecture-contract tests: TOML loading, layering, ARC00x findings."""

from pathlib import Path

import pytest

from lint.contract import (
    ROOT_LAYER,
    ArchContract,
    check_contract,
    layer_of,
    load_contract,
)
from lint.graph import build_import_graph

REPO_CONTRACT = Path(__file__).resolve().parents[2] / "tools" / "arch_contract.toml"


def contract(layers, forbid_cycles=True):
    return ArchContract(
        root="repro",
        layers={k: frozenset(v) for k, v in layers.items()},
        forbid_cycles=forbid_cycles,
    )


def graph_of(*sources):
    return build_import_graph(list(sources))


class TestLoadContract:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "contract.toml"
        path.write_text(
            '[project]\nroot = "repro"\nforbid_cycles = false\n'
            "[layers]\nutils = []\nindex = [\"utils\"]\n"
        )
        loaded = load_contract(path)
        assert loaded.root == "repro"
        assert loaded.forbid_cycles is False
        assert loaded.allowed("index") == frozenset({"utils"})
        assert loaded.allowed("nope") is None

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_contract(tmp_path / "absent.toml")

    def test_missing_layers_table_raises(self, tmp_path):
        path = tmp_path / "contract.toml"
        path.write_text('[project]\nroot = "repro"\n')
        with pytest.raises(ValueError, match="layers"):
            load_contract(path)

    def test_undeclared_dependency_raises(self, tmp_path):
        path = tmp_path / "contract.toml"
        path.write_text('[layers]\nindex = ["ghost"]\n')
        with pytest.raises(ValueError, match="ghost"):
            load_contract(path)

    def test_repo_contract_is_valid(self):
        loaded = load_contract(REPO_CONTRACT)
        assert loaded.root == "repro"
        # The linter is a tool, not a layer of the package it checks.
        assert "analysis" not in loaded.layers


class TestLayerOf:
    def test_layers(self):
        assert layer_of("repro.index.pq", "repro") == "index"
        assert layer_of("repro.cli", "repro") == "cli"
        assert layer_of("repro", "repro") == ROOT_LAYER


class TestCheckContract:
    def test_clean_project_has_no_findings(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a/__init__.py", ""),
            ("repro/a/x.py", "from repro.b import y\n"),
            ("repro/b/__init__.py", ""),
            ("repro/b/y.py", ""),
        )
        assert check_contract(graph, contract({"a": ["b"], "b": []})) == []

    def test_layer_violation_is_arc001(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a/__init__.py", ""),
            ("repro/a/x.py", "from repro.b import y\n"),
            ("repro/b/__init__.py", ""),
            ("repro/b/y.py", ""),
        )
        findings = check_contract(graph, contract({"a": [], "b": []}))
        assert [f.rule for f in findings] == ["ARC001"]
        assert findings[0].severity == "error"
        assert findings[0].path == "repro/a/x.py"
        assert "'a' may not import from 'b'" in findings[0].message

    def test_runtime_cycle_is_arc002(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a.py", "from repro import b\n"),
            ("repro/b.py", "from repro import a\n"),
        )
        findings = check_contract(graph, contract({"a": ["b"], "b": ["a"]}))
        assert [f.rule for f in findings] == ["ARC002"]
        assert "repro.a -> repro.b -> repro.a" in findings[0].message

    def test_cycles_allowed_when_disabled(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a.py", "from repro import b\n"),
            ("repro/b.py", "from repro import a\n"),
        )
        conf = contract({"a": ["b"], "b": ["a"]}, forbid_cycles=False)
        assert check_contract(graph, conf) == []

    def test_undeclared_layer_is_arc003_once(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a.py", ""),
            ("repro/b/__init__.py", ""),
            ("repro/b/x.py", "from repro import a\n"),
            ("repro/b/y.py", "from repro import a\n"),
        )
        findings = check_contract(graph, contract({"a": []}))
        assert [f.rule for f in findings] == ["ARC003"]
        assert "'b'" in findings[0].message

    def test_typing_only_import_is_exempt(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a/__init__.py", ""),
            ("repro/a/x.py",
             "from typing import TYPE_CHECKING\n"
             "if TYPE_CHECKING:\n"
             "    from repro.b import y\n"),
            ("repro/b/__init__.py", ""),
            ("repro/b/y.py", ""),
        )
        assert check_contract(graph, contract({"a": [], "b": []})) == []
