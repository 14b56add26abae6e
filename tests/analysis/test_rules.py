"""Per-rule unit tests: each rule against positive and negative fixtures.

Fixtures are linted under *virtual* paths — rules scope themselves by the
``repro/...`` path tail, so ``src/repro/nn/fake.py`` exercises the
hot-path rules while ``src/repro/lookup/fake.py`` exercises the
everywhere-but-allowlist rules without touching real modules.
"""

import pytest

from lint import RULES, lint_source
from lint.rules import module_tail

from tests.analysis.fixtures import fixture_source

HOT_PATH = "src/repro/nn/fake.py"
COLD_PATH = "src/repro/lookup/fake.py"


def rule_ids(findings):
    """Sorted multiset of rule ids in ``findings``."""
    return sorted(f.rule for f in findings)


class TestRegistry:
    def test_all_documented_rules_registered(self):
        assert set(RULES) == {
            "REP101",
            "REP102",
            "REP401",
            "REP402",
            "REP403",
            "REP501",
            "REP502",
            "REP503",
            "REP504",
        }

    def test_registry_keys_match_instances(self):
        for rule_id, rule in RULES.items():
            assert rule.rule_id == rule_id
            assert rule.description

    def test_module_tail(self):
        assert module_tail("src/repro/nn/layers.py") == "repro/nn/layers.py"
        assert module_tail("/abs/path/repro/index/pq.py") == "repro/index/pq.py"
        assert module_tail("not_in_package.py") == "not_in_package.py"


class TestDtypeRules:
    def test_implicit_dtype_flagged_in_hot_path(self):
        findings = lint_source(
            fixture_source("dtype_violations.py"), HOT_PATH, select=["REP101"]
        )
        assert rule_ids(findings) == ["REP101"] * 4

    def test_float64_leak_flagged_in_hot_path(self):
        findings = lint_source(
            fixture_source("dtype_violations.py"), HOT_PATH, select=["REP102"]
        )
        assert rule_ids(findings) == ["REP102"] * 3

    def test_clean_fixture_passes(self):
        findings = lint_source(fixture_source("dtype_clean.py"), HOT_PATH)
        assert findings == []

    def test_dtype_rules_skip_cold_paths(self):
        """Outside nn/index/embedding the same source is not a finding."""
        findings = lint_source(
            fixture_source("dtype_violations.py"),
            COLD_PATH,
            select=["REP101", "REP102"],
        )
        assert findings == []

    def test_gradcheck_is_float64_allowlisted(self):
        findings = lint_source(
            fixture_source("dtype_violations.py"),
            "src/repro/nn/gradcheck.py",
            select=["REP102"],
        )
        assert findings == []


class TestHygieneRules:
    def test_hygiene_violations_flagged(self):
        findings = lint_source(fixture_source("hygiene_violations.py"), COLD_PATH)
        assert rule_ids(findings) == ["REP401", "REP402", "REP402", "REP403"]

    def test_hygiene_clean_fixture_passes(self):
        findings = lint_source(fixture_source("hygiene_clean.py"), COLD_PATH)
        assert findings == []

    def test_print_allowed_in_cli(self):
        source = "def show(x):\n    print(x)\n"
        assert lint_source(source, "src/repro/cli.py", select=["REP403"]) == []
        assert len(lint_source(source, COLD_PATH, select=["REP403"])) == 1

    @pytest.mark.parametrize(
        "source",
        [
            "def f(x, cache={}):\n    return cache\n",
            "def f(x, *, seen=[]):\n    return seen\n",
            "def f(x, bucket=list()):\n    return bucket\n",
        ],
    )
    def test_mutable_default_forms(self, source):
        assert len(lint_source(source, COLD_PATH, select=["REP402"])) == 1

    def test_none_default_not_flagged(self):
        source = "def f(x, bucket=None):\n    return bucket\n"
        assert lint_source(source, COLD_PATH, select=["REP402"]) == []
