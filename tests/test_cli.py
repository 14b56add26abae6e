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


class TestRemovedVerbs:
    @pytest.mark.parametrize("verb", ["lint", "archcheck", "shapecheck"])
    def test_linter_verbs_are_not_part_of_the_package(self, verb, capsys):
        """The linter is ``python tools/run_lint.py``; ``repro`` ships the
        lookup system only, so its verbs are usage errors here."""
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
