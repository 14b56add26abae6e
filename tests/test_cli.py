"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.kg import save_kg_json


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_kg_defaults(self):
        args = build_parser().parse_args(["generate-kg", "--out", "x.json"])
        assert args.entities == 2000
        assert args.flavour == "wikidata"


class TestLifecycle:
    def test_generate_kg(self, tmp_path, capsys):
        out = tmp_path / "kg.json"
        rc = main(["generate-kg", "--entities", "200", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "200 entities" in capsys.readouterr().out

    def test_train_lookup_evaluate(self, tmp_path, tiny_kg, capsys):
        kg_path = tmp_path / "kg.json"
        save_kg_json(tiny_kg, kg_path)
        model_dir = tmp_path / "model"

        rc = main([
            "train", "--kg", str(kg_path), "--out", str(model_dir),
            "--epochs", "1", "--triplets", "3",
        ])
        assert rc == 0
        assert (model_dir / "model.npz").exists()
        capsys.readouterr()

        rc = main([
            "lookup", "--kg", str(kg_path), "--model", str(model_dir),
            "--k", "3", "germany", "berlin",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "germany:" in out
        assert out.count("d=") == 6

        rc = main([
            "evaluate", "--kg", str(kg_path), "--model", str(model_dir),
            "--sample", "40", "--k", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "success@10" in out
        assert "clean" in out and "noisy" in out

    def test_lookup_without_queries_fails(self, tmp_path, tiny_kg, monkeypatch):
        kg_path = tmp_path / "kg.json"
        save_kg_json(tiny_kg, kg_path)
        model_dir = tmp_path / "model"
        main([
            "train", "--kg", str(kg_path), "--out", str(model_dir),
            "--epochs", "0", "--triplets", "2",
        ])
        monkeypatch.setattr("sys.stdin.isatty", lambda: True)
        rc = main(["lookup", "--kg", str(kg_path), "--model", str(model_dir)])
        assert rc == 1


class TestLintCommand:
    def write_hot_module(self, tmp_path, source):
        pkg = tmp_path / "repro" / "nn"
        pkg.mkdir(parents=True)
        target = pkg / "module.py"
        target.write_text(source)
        return target

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.write_hot_module(
            tmp_path, "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n"
        )
        rc = main(["lint", str(tmp_path), "--no-baseline"])
        assert rc == 0
        assert "no new findings" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, tmp_path, capsys):
        self.write_hot_module(tmp_path, "import numpy as np\nx = np.zeros(3)\n")
        rc = main(["lint", str(tmp_path), "--no-baseline"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REP101" in out

    def test_json_format(self, tmp_path, capsys):
        import json

        self.write_hot_module(tmp_path, "import numpy as np\nx = np.zeros(3)\n")
        rc = main(["lint", str(tmp_path), "--no-baseline", "--format", "json"])
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["total"] == 1
        assert document["findings"][0]["rule"] == "REP101"

    def test_baseline_workflow(self, tmp_path, capsys):
        """write-baseline freezes findings; the next run exits clean."""
        self.write_hot_module(tmp_path, "import numpy as np\nx = np.zeros(3)\n")
        baseline = tmp_path / "baseline.json"
        rc = main([
            "lint", str(tmp_path), "--baseline", str(baseline), "--write-baseline",
        ])
        assert rc == 0
        assert baseline.exists()
        capsys.readouterr()
        rc = main(["lint", str(tmp_path), "--baseline", str(baseline)])
        assert rc == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        self.write_hot_module(tmp_path, "x = 1\n")
        rc = main(["lint", str(tmp_path), "--no-baseline", "--select", "REP777"])
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "nope"), "--no-baseline"])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_profile_perf_selects_only_rep5(self, tmp_path, capsys):
        import json

        # One dtype violation (REP101) and one loop allocation (REP501);
        # the perf profile must surface only the latter.
        self.write_hot_module(
            tmp_path,
            "import numpy as np\n"
            "x = np.zeros(3)\n"
            "def f(n):\n"
            "    for _ in range(n):\n"
            "        a = np.zeros(3, dtype=np.float32)\n",
        )
        rc = main([
            "lint", str(tmp_path), "--no-baseline",
            "--profile", "perf", "--format", "json",
        ])
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert [r["rule"] for r in document["findings"]] == ["REP501"]

    def test_profile_grad_selects_only_rep6(self, tmp_path, capsys):
        import json

        self.write_hot_module(
            tmp_path,
            "from repro.nn.layers import Module\n"
            "class Net(Module):\n"
            "    def forward(self, x):\n"
            "        return x.data\n",
        )
        rc = main([
            "lint", str(tmp_path), "--no-baseline",
            "--profile", "grad", "--format", "json",
        ])
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert [r["rule"] for r in document["findings"]] == ["REP602"]

    def test_profile_and_select_conflict_exits_two(self, tmp_path, capsys):
        self.write_hot_module(tmp_path, "x = 1\n")
        rc = main([
            "lint", str(tmp_path), "--no-baseline",
            "--profile", "perf", "--select", "REP101",
        ])
        assert rc == 2
        assert "--profile" in capsys.readouterr().err


class TestArchcheckCommand:
    def repo_args(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        return [
            "archcheck", str(root / "src" / "repro"),
            "--contract", str(root / "tools" / "arch_contract.toml"),
        ]

    def write_contract(self, tmp_path, body):
        contract = tmp_path / "contract.toml"
        contract.write_text(body)
        return contract

    def write_tree(self, tmp_path, files):
        for rel, source in files.items():
            target = tmp_path / "src" / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        return tmp_path / "src"

    def test_repo_satisfies_its_own_contract(self, capsys):
        rc = main(self.repo_args())
        assert rc == 0
        out = capsys.readouterr().out
        assert "architecture contract OK" in out
        assert "runtime import edges" in out

    def test_layer_violation_exits_one(self, tmp_path, capsys):
        tree = self.write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a/__init__.py": "",
            "repro/a/x.py": "from repro.b import y\n",
            "repro/b/__init__.py": "",
            "repro/b/y.py": "",
        })
        contract = self.write_contract(
            tmp_path, '[project]\nroot = "repro"\n[layers]\na = []\nb = []\n'
        )
        rc = main(["archcheck", str(tree), "--contract", str(contract)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "ARC001" in out
        assert "'a' may not import from 'b'" in out

    def test_seeded_cycle_exits_one(self, tmp_path, capsys):
        tree = self.write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a.py": "from repro import b\n",
            "repro/b.py": "from repro import a\n",
        })
        contract = self.write_contract(
            tmp_path,
            '[project]\nroot = "repro"\nforbid_cycles = true\n'
            '[layers]\na = ["b"]\nb = ["a"]\n',
        )
        rc = main(["archcheck", str(tree), "--contract", str(contract)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "ARC002" in out
        assert "repro.a -> repro.b -> repro.a" in out

    def test_missing_contract_exits_two(self, tmp_path, capsys):
        rc = main([
            "archcheck", str(tmp_path),
            "--contract", str(tmp_path / "absent.toml"),
        ])
        assert rc == 2
        assert "absent.toml" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        import json

        tree = self.write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a/__init__.py": "",
            "repro/a/x.py": "from repro.b import y\n",
            "repro/b/__init__.py": "",
            "repro/b/y.py": "",
        })
        contract = self.write_contract(
            tmp_path, '[project]\nroot = "repro"\n[layers]\na = []\nb = []\n'
        )
        rc = main([
            "archcheck", str(tree), "--contract", str(contract),
            "--format", "json",
        ])
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert [r["rule"] for r in document["findings"]] == ["ARC001"]
        assert document["findings"][0]["severity"] == "error"


class TestShapecheckCommand:
    def test_default_config_accepted(self, capsys):
        rc = main(["shapecheck"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK: dual tower is shape/dtype consistent -> (N, 64) float32" in out
        assert "compresses to 8 B codes" in out

    def test_mis_sized_mlp_rejected(self, capsys):
        rc = main(["shapecheck", "--mlp-in", "100"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "fuse1" in err and "128" in err

    def test_pq_indivisible_dim_rejected(self, capsys):
        rc = main(["shapecheck", "--dim", "60"])
        assert rc == 1
        assert "divisible" in capsys.readouterr().err
