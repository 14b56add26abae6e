"""Dataflow engine tests: loop context, abstract values, unit boundaries."""

import ast

from lint.dataflow import (
    KIND_LIST,
    KIND_NDARRAY,
    KIND_SCALAR,
    analyze,
    iter_code_units,
    numpy_aliases,
)


def facts_for(source, name=None):
    """Analyse the named function (or the module body) of ``source``."""
    tree = ast.parse(source)
    aliases = numpy_aliases(tree)
    if name is None:
        return tree, analyze(tree, aliases)
    unit = next(
        u
        for u in iter_code_units(tree)
        if getattr(u, "name", None) == name
    )
    return unit, analyze(unit, aliases)


def find(unit, kind, pred=lambda n: True):
    """First node of ``kind`` under ``unit`` matching ``pred``."""
    for node in ast.walk(unit):
        if isinstance(node, kind) and pred(node):
            return node
    raise AssertionError(f"no {kind.__name__} matching predicate")


def np_call(unit, ctor):
    return find(
        unit,
        ast.Call,
        lambda n: isinstance(n.func, ast.Attribute) and n.func.attr == ctor,
    )


class TestLoopContext:
    SOURCE = (
        "import numpy as np\n"
        "def f(n):\n"
        "    for i in range(n):\n"
        "        a = np.zeros(3, dtype=np.float32)\n"
        "        for j in range(n):\n"
        "            b = np.ones(3, dtype=np.float32)\n"
    )

    def test_loop_depth_counts_enclosing_loops(self):
        unit, facts = facts_for(self.SOURCE, "f")
        assert facts.loop_depth(np_call(unit, "zeros")) == 1
        assert facts.loop_depth(np_call(unit, "ones")) == 2

    def test_while_counts_as_a_loop(self):
        src = (
            "import numpy as np\n"
            "def f(n):\n"
            "    while n:\n"
            "        a = np.zeros(3, dtype=np.float32)\n"
        )
        unit, facts = facts_for(src, "f")
        assert facts.loop_depth(np_call(unit, "zeros")) == 1

    def test_comprehension_is_not_a_loop(self):
        src = (
            "import numpy as np\n"
            "def g(n):\n"
            "    rows = [np.zeros(3, dtype=np.float32) for _ in range(n)]\n"
        )
        unit, facts = facts_for(src, "g")
        assert facts.loop_depth(np_call(unit, "zeros")) == 0

    def test_active_loop_vars(self):
        src = (
            "import numpy as np\n"
            "def f(arr: np.ndarray, n):\n"
            "    for i in range(n):\n"
            "        x = arr[i]\n"
            "    y = arr[0]\n"
        )
        unit, facts = facts_for(src, "f")
        inside = find(unit, ast.Subscript, lambda n: isinstance(n.slice, ast.Name))
        outside = find(
            unit, ast.Subscript, lambda n: isinstance(n.slice, ast.Constant)
        )
        assert "i" in facts.active_loop_vars(inside)
        assert facts.active_loop_vars(outside) == frozenset()


class TestAbstractValues:
    def test_default_ctor_is_float64(self):
        unit, facts = facts_for(
            "import numpy as np\ndef f():\n    a = np.zeros(3)\n", "f"
        )
        value = facts.value_of(np_call(unit, "zeros"))
        assert (value.kind, value.dtype) == (KIND_NDARRAY, "float64")

    def test_dtype_kwarg_and_astype_flow_through_assignment(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    a = np.zeros(3, dtype=np.float32)\n"
            "    b = a.astype(np.float64)\n"
            "    return b\n"
        )
        unit, facts = facts_for(src, "f")
        returned = find(unit, ast.Return).value
        value = facts.value_of(returned)
        assert (value.kind, value.dtype) == (KIND_NDARRAY, "float64")

    def test_binop_promotion_float32_times_float64(self):
        src = (
            "import numpy as np\n"
            "def f(v: np.ndarray):\n"
            "    a = v.astype(np.float32)\n"
            "    return a * np.float64(2.0)\n"
        )
        unit, facts = facts_for(src, "f")
        binop = find(unit, ast.BinOp)
        value = facts.value_of(binop)
        assert (value.kind, value.dtype) == (KIND_NDARRAY, "float64")

    def test_annotation_seeds_parameters(self):
        src = "import numpy as np\ndef f(v: np.ndarray):\n    return v\n"
        unit, facts = facts_for(src, "f")
        returned = find(unit, ast.Return).value
        assert facts.value_of(returned).kind == KIND_NDARRAY

    def test_tolist_and_item(self):
        src = (
            "import numpy as np\n"
            "def f(v: np.ndarray):\n"
            "    a = v.tolist()\n"
            "    b = v.item()\n"
        )
        unit, facts = facts_for(src, "f")
        tolist = find(
            unit,
            ast.Call,
            lambda n: isinstance(n.func, ast.Attribute)
            and n.func.attr == "tolist",
        )
        item = find(
            unit,
            ast.Call,
            lambda n: isinstance(n.func, ast.Attribute) and n.func.attr == "item",
        )
        assert facts.value_of(tolist).kind == KIND_LIST
        assert facts.value_of(item).kind == KIND_SCALAR

    def test_in_loop_definition_reaches_loop_top(self):
        """Second pass: a definition made late in the body reaches early uses."""
        src = (
            "import numpy as np\n"
            "def f(n):\n"
            "    for _ in range(n):\n"
            "        use = grown\n"
            "        grown = np.zeros(3, dtype=np.float32)\n"
        )
        unit, facts = facts_for(src, "f")
        use = find(
            unit,
            ast.Name,
            lambda n: n.id == "grown" and isinstance(n.ctx, ast.Load),
        )
        assert facts.value_of(use).kind == KIND_NDARRAY


class TestUnitBoundaries:
    SOURCE = (
        "import numpy as np\n"
        "def outer(n):\n"
        "    for _ in range(n):\n"
        "        def inner():\n"
        "            leaked = np.zeros(3, dtype=np.float32)\n"
    )

    def test_nested_def_body_is_opaque_to_the_outer_unit(self):
        unit, facts = facts_for(self.SOURCE, "outer")
        call = np_call(unit, "zeros")
        # The inner allocation must not inherit outer's loop depth.
        assert facts.loop_depth(call) == 0

    def test_nested_def_is_its_own_unit(self):
        tree = ast.parse(self.SOURCE)
        names = [getattr(u, "name", "<module>") for u in iter_code_units(tree)]
        assert names == ["<module>", "outer", "inner"]

    def test_numpy_alias_detection(self):
        tree = ast.parse("import numpy as xp\n")
        assert "xp" in numpy_aliases(tree)
