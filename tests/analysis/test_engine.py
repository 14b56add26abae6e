"""Engine tests: noqa suppression, selection, file walking."""

import pytest

from lint import check_paths, iter_python_files, lint_source

from tests.analysis.fixtures import fixture_source

HOT_PATH = "src/repro/nn/fake.py"


class TestNoqa:
    def test_suppression_forms(self):
        """Blanket and rule-scoped noqa suppress; a mismatched id does not."""
        findings = lint_source(fixture_source("noqa_suppressions.py"), HOT_PATH)
        assert len(findings) == 1
        assert findings[0].rule == "REP101"
        # The surviving finding is the one guarded by the wrong rule id.
        assert "REP999" in fixture_source("noqa_suppressions.py").splitlines()[
            findings[0].line - 1
        ]

    def test_noqa_is_case_insensitive(self):
        source = "import numpy as np\nx = np.zeros(3)  # REPRO: NOQA\n"
        assert lint_source(source, HOT_PATH) == []

    def test_scoped_noqa_leaves_other_rules(self):
        """noqa[REP102] on a line with both violations keeps the REP101."""
        source = (
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float64)  # repro: noqa[REP101]\n"
        )
        findings = lint_source(source, HOT_PATH)
        assert [f.rule for f in findings] == ["REP102"]


class TestSyntaxError:
    def test_broken_file_yields_rep000(self):
        findings = lint_source("def broken(:\n", HOT_PATH)
        assert len(findings) == 1
        assert findings[0].rule == "REP000"
        assert findings[0].severity == "error"
        assert "syntax error" in findings[0].message


class TestSelection:
    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            lint_source("x = 1\n", HOT_PATH, select=["REP777"])

    def test_prefix_selection(self):
        """``REP1`` selects the whole dtype family."""
        findings = lint_source(
            fixture_source("dtype_violations.py"), HOT_PATH, select=["REP1"]
        )
        assert {f.rule for f in findings} == {"REP101", "REP102"}


class TestFileWalking:
    def test_iter_python_files_expands_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert [p.name for p in files] == ["a.py", "b.py", "c.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_python_files([tmp_path / "missing"])

    def test_skips_pycache_and_hidden_directories(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "keep.cpython-311.py").write_text("x = 1\n")
        hidden = tmp_path / ".venv" / "lib"
        hidden.mkdir(parents=True)
        (hidden / "vendored.py").write_text("x = 1\n")
        nested_cache = tmp_path / "pkg" / "__pycache__"
        nested_cache.mkdir(parents=True)
        (nested_cache / "mod.py").write_text("x = 1\n")
        (tmp_path / ".hidden.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert [p.name for p in files] == ["keep.py"]

    def test_explicit_file_argument_is_always_included(self, tmp_path):
        hidden = tmp_path / ".hidden.py"
        hidden.write_text("x = 1\n")
        assert iter_python_files([hidden]) == [hidden]

    def test_deduplicates_overlapping_arguments(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        assert iter_python_files([tmp_path, target, tmp_path]) == [target]

    def test_lint_paths_end_to_end(self, tmp_path):
        """A file under a repro/nn/ directory on disk trips hot-path rules."""
        pkg = tmp_path / "repro" / "nn"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import numpy as np\nx = np.zeros(3)\n")
        (pkg / "good.py").write_text(
            "import numpy as np\nx = np.zeros(3, dtype=np.float32)\n"
        )
        findings = check_paths([tmp_path])
        assert [f.rule for f in findings] == ["REP101"]
        assert findings[0].path.endswith("repro/nn/bad.py")
