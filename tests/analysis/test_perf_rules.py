"""REP5xx perf-rule tests: fixture positives/negatives + scoping."""

from lint import lint_source

from tests.analysis.fixtures import fixture_source

HOT_PATH = "src/repro/index/fake.py"
COLD_PATH = "src/repro/lookup/fake.py"
GRADCHECK_PATH = "src/repro/nn/gradcheck.py"

PERF = ["REP5"]


def rules_of(findings):
    return [f.rule for f in findings]


class TestFixtures:
    def test_violations_trip_every_rule(self):
        findings = lint_source(
            fixture_source("perf_violations.py"), HOT_PATH, select=PERF
        )
        assert rules_of(findings) == [
            "REP501",  # np.ones inside the loop
            "REP501",  # np.concatenate growth
            "REP502",  # for row in matrix
            "REP503",  # table[j] at depth 2
            "REP503",  # table.tolist() at depth 2
            "REP504",  # float32 * float64
            "REP504",  # astype(float)
        ]

    def test_clean_counterparts_stay_quiet(self):
        findings = lint_source(
            fixture_source("perf_clean.py"), HOT_PATH, select=PERF
        )
        assert findings == []

    def test_growth_calls_get_the_quadratic_message(self):
        findings = lint_source(
            fixture_source("perf_violations.py"), HOT_PATH, select=PERF
        )
        concat = next(f for f in findings if "concatenate" in f.message)
        assert "O(n^2)" in concat.message

    def test_all_perf_findings_are_warnings(self):
        findings = lint_source(
            fixture_source("perf_violations.py"), HOT_PATH, select=PERF
        )
        assert {f.severity for f in findings} == {"warning"}


class TestScoping:
    def test_cold_paths_are_exempt(self):
        findings = lint_source(
            fixture_source("perf_violations.py"), COLD_PATH, select=PERF
        )
        assert findings == []

    def test_gradcheck_is_allowlisted(self):
        """Numerical differentiation is elementwise by design."""
        findings = lint_source(
            fixture_source("perf_violations.py"), GRADCHECK_PATH, select=PERF
        )
        assert findings == []

    def test_noqa_suppresses_perf_findings(self):
        source = (
            "import numpy as np\n"
            "def f(n):\n"
            "    for _ in range(n):\n"
            "        a = np.zeros(3, dtype=np.float32)  # repro: noqa[REP501]\n"
        )
        assert lint_source(source, HOT_PATH, select=PERF) == []


class TestDepthSensitivity:
    def test_itemwise_indexing_at_depth_one_is_allowed(self):
        """REP503 targets inner loops; a single loop level is fine."""
        source = (
            "import numpy as np\n"
            "def f(arr: np.ndarray, n):\n"
            "    total = 0.0\n"
            "    for i in range(n):\n"
            "        total += float(arr[i])\n"
        )
        assert lint_source(source, HOT_PATH, select=["REP503"]) == []

    def test_alloc_outside_loops_is_allowed(self):
        source = (
            "import numpy as np\n"
            "def f(n):\n"
            "    out = np.zeros((n, 4), dtype=np.float32)\n"
            "    return out\n"
        )
        assert lint_source(source, HOT_PATH, select=["REP501"]) == []

    def test_iteration_over_list_is_allowed(self):
        source = (
            "import numpy as np\n"
            "def f(arr: np.ndarray):\n"
            "    for value in arr.tolist():\n"
            "        yield value\n"
        )
        assert lint_source(source, HOT_PATH, select=["REP502"]) == []
