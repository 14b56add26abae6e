"""Import graph tests: module names, resolution, cycles."""

from lint.graph import build_import_graph, module_name_for_path


def graph_of(*sources):
    return build_import_graph(list(sources))


class TestModuleNames:
    def test_repro_tail(self):
        assert module_name_for_path("src/repro/index/pq.py") == "repro.index.pq"
        assert module_name_for_path("/clone/repro/nn/layers.py") == (
            "repro.nn.layers"
        )

    def test_package_init_names_the_package(self):
        assert module_name_for_path("src/repro/nn/__init__.py") == "repro.nn"


class TestImportResolution:
    def test_from_import_submodule_vs_attribute(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/nn/__init__.py", ""),
            ("repro/nn/functional.py", "def relu(x):\n    return x\n"),
            (
                "repro/nn/layers.py",
                "from repro.nn import functional\n"
                "from repro.nn.functional import relu\n",
            ),
        )
        # Both forms resolve to the submodule, not the package __init__.
        assert graph.runtime_imports("repro.nn.layers") == {
            "repro.nn.functional"
        }

    def test_relative_import(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/pkg/__init__.py", ""),
            ("repro/pkg/helper.py", ""),
            ("repro/pkg/mod.py", "from . import helper\n"),
        )
        assert graph.runtime_imports("repro.pkg.mod") == {"repro.pkg.helper"}

    def test_type_checking_imports_are_not_runtime(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a.py",
             "from typing import TYPE_CHECKING\n"
             "if TYPE_CHECKING:\n"
             "    from repro import b\n"),
            ("repro/b.py", ""),
        )
        assert graph.runtime_imports("repro.a") == set()
        typing_only = [
            e for e in graph.edges if e.src == "repro.a" and e.dst == "repro.b"
        ]
        assert typing_only and not typing_only[0].runtime

    def test_external_imports_are_ignored(self):
        graph = graph_of(("repro/a.py", "import numpy as np\nimport heapq\n"))
        assert graph.runtime_imports("repro.a") == set()


class TestCycles:
    def test_seeded_two_module_cycle_is_detected(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a.py", "from repro import b\n"),
            ("repro/b.py", "from repro import a\n"),
        )
        assert graph.find_cycles() == [["repro.a", "repro.b"]]
        (members, lineno, path) = graph.import_cycles_with_lines()[0]
        assert members == ["repro.a", "repro.b"]
        assert lineno == 1
        assert path == "repro/a.py"

    def test_acyclic_tree_has_no_cycles(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a.py", "from repro import b\n"),
            ("repro/b.py", ""),
        )
        assert graph.find_cycles() == []

    def test_typing_only_backedge_is_not_a_cycle(self):
        graph = graph_of(
            ("repro/__init__.py", ""),
            ("repro/a.py", "from repro import b\n"),
            ("repro/b.py",
             "from typing import TYPE_CHECKING\n"
             "if TYPE_CHECKING:\n"
             "    from repro import a\n"),
        )
        assert graph.find_cycles() == []
