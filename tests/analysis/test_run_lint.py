"""``tools/run_lint.py``: the one entry point and its exit codes.

0 = no findings, 1 = a rule or contract finding, 2 = usage error — the
codes ``repro lint`` / ``repro archcheck`` had before the linter left the
package.  Seeded trees use real layer names because the gate always
checks against ``tools/arch_contract.toml``.
"""

import json

import pytest

import run_lint
from lint import RULES

from tests.analysis.fixtures import fixture_source


def write_tree(root, files):
    """Write ``{relative path: source}`` under ``root``; returns ``root``."""
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


def run(capsys, *argv):
    """``(exit code, stdout, stderr)`` of one ``run_lint.main`` call."""
    rc = run_lint.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestRules:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/nn/module.py":
                "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n",
        })
        rc, out, _ = run(capsys, tmp_path)
        assert rc == 0
        assert out.strip() == "no findings"

    def test_violations_exit_nonzero(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/nn/module.py": "import numpy as np\nx = np.zeros(3)\n",
        })
        rc, out, _ = run(capsys, tmp_path)
        assert rc == 1
        assert "REP101" in out

    def test_json_format(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/nn/module.py": "import numpy as np\nx = np.zeros(3)\n",
        })
        rc, out, _ = run(capsys, tmp_path, "--format", "json")
        assert rc == 1
        document = json.loads(out)
        assert document["summary"]["total"] == 1
        assert document["findings"][0]["rule"] == "REP101"

    def test_select_restricts_the_run_to_a_family(self, tmp_path, capsys):
        # One dtype violation (REP101) and one loop allocation (REP501).
        write_tree(tmp_path, {
            "repro/nn/module.py":
                "import numpy as np\n"
                "x = np.zeros(3)\n"
                "def f(n):\n"
                "    for _ in range(n):\n"
                "        a = np.zeros(3, dtype=np.float32)\n",
        })
        rc, out, _ = run(capsys, tmp_path, "--select", "REP5", "--format", "json")
        assert rc == 1
        assert [r["rule"] for r in json.loads(out)["findings"]] == ["REP501"]

    @pytest.mark.parametrize(
        "family, path",
        [
            ("dtype", "repro/nn/fake.py"),
            ("hygiene", "repro/lookup/fake.py"),
            ("perf", "repro/index/fake.py"),
        ],
    )
    def test_every_rule_fires_on_its_fixture_and_not_on_the_clean_twin(
        self, family, path, tmp_path, capsys
    ):
        prefix = {"dtype": "REP1", "hygiene": "REP4", "perf": "REP5"}[family]
        seeded = write_tree(
            tmp_path / "bad", {path: fixture_source(f"{family}_violations.py")}
        )
        rc, out, _ = run(capsys, seeded, "--select", prefix, "--format", "json")
        assert rc == 1
        fired = {r["rule"] for r in json.loads(out)["findings"]}
        assert fired == {rule for rule in RULES if rule.startswith(prefix)}
        clean = write_tree(
            tmp_path / "good", {path: fixture_source(f"{family}_clean.py")}
        )
        rc, out, _ = run(capsys, clean)
        assert (rc, out.strip()) == (0, "no findings")

    def test_fixture_families_cover_the_registry(self):
        assert {rule[:4] for rule in RULES} == {"REP1", "REP4", "REP5"}


class TestContract:
    def test_repo_tree_exits_zero(self, capsys):
        """No arguments: ``src/repro`` against its own rules and contract."""
        rc, out, _ = run(capsys)
        assert rc == 0, out

    def test_layer_violation_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/index/__init__.py": "",
            "repro/index/x.py": "from repro.lookup import y\n",
            "repro/lookup/__init__.py": "",
            "repro/lookup/y.py": "",
        })
        rc, out, _ = run(capsys, tmp_path)
        assert rc == 1
        assert "ARC001" in out
        assert "'index' may not import from 'lookup'" in out

    def test_seeded_cycle_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/index/__init__.py": "",
            "repro/index/a.py": "from repro.index import b\n",
            "repro/index/b.py": "from repro.index import a\n",
        })
        rc, out, _ = run(capsys, tmp_path)
        assert rc == 1
        assert "ARC002" in out
        assert "repro.index.a -> repro.index.b -> repro.index.a" in out

    def test_json_format(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/index/__init__.py": "",
            "repro/index/x.py": "from repro.lookup import y\n",
            "repro/lookup/__init__.py": "",
        })
        rc, out, _ = run(capsys, tmp_path, "--format", "json")
        assert rc == 1
        (finding,) = json.loads(out)["findings"]
        assert finding["rule"] == "ARC001" and finding["severity"] == "error"

    def test_select_can_leave_the_contract_out(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "repro/index/x.py": "from repro.lookup import y\n",
            "repro/lookup/__init__.py": "",
            "repro/lookup/y.py": "",
        })
        assert run(capsys, tmp_path, "--select", "REP")[0] == 0
        assert run(capsys, tmp_path, "--select", "ARC")[0] == 1


class TestUsageErrors:
    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/nn/module.py": "x = 1\n"})
        rc, _, err = run(capsys, tmp_path, "--select", "REP777")
        assert rc == 2
        assert "unknown rule" in err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        rc, _, err = run(capsys, tmp_path / "nope")
        assert rc == 2
        assert "no such file" in err

    def test_missing_contract_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(run_lint, "CONTRACT", tmp_path / "absent.toml")
        rc, _, err = run(capsys, tmp_path)
        assert rc == 2
        assert "absent.toml" in err

    @pytest.mark.parametrize("flag", ["--baseline", "--update-baseline", "--profile"])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_lint.main([flag, "x"])
        assert exc.value.code == 2
