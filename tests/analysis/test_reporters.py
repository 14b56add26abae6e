"""Reporter tests: text grouping/footers and the JSON document shape."""

import json

from lint import lint_source, render_json, render_text, summarize

from tests.analysis.fixtures import fixture_source

HOT_PATH = "src/repro/nn/fake.py"


def sample_findings():
    """Mixed-severity findings from the hygiene + dtype fixtures."""
    return lint_source(
        fixture_source("hygiene_violations.py"), "src/repro/lookup/fake.py"
    ) + lint_source(fixture_source("dtype_violations.py"), HOT_PATH)


class TestSummarize:
    def test_counts_by_severity(self):
        counts = summarize(sample_findings())
        # hygiene: 1 error (REP401) + 3 warnings; dtype: 7 warnings.
        assert counts == {"total": 11, "errors": 1, "warnings": 10}

    def test_empty(self):
        assert summarize([]) == {"total": 0, "errors": 0, "warnings": 0}


class TestTextReporter:
    def test_groups_by_file_with_footer(self):
        report = render_text(sample_findings())
        assert "src/repro/lookup/fake.py" in report
        assert "src/repro/nn/fake.py" in report
        assert "11 finding(s): 1 error(s), 10 warning(s)" in report

    def test_clean_run(self):
        assert render_text([]) == "no findings"


class TestJsonReporter:
    def test_document_shape(self):
        findings = sample_findings()
        document = json.loads(render_json(findings))
        assert document["version"] == 1
        assert document["summary"]["total"] == len(findings)
        assert len(document["findings"]) == len(findings)
        record = document["findings"][0]
        assert set(record) == {
            "rule", "path", "line", "col", "severity", "message",
        }

    def test_zero_findings_document(self):
        document = json.loads(render_json([]))
        assert document["version"] == 1
        assert document["findings"] == []
        assert document["summary"] == {"total": 0, "errors": 0, "warnings": 0}

    def test_severity_round_trips_through_json(self):
        """Severity constants serialise to their own literal strings."""
        from lint import Severity

        findings = sample_findings()
        document = json.loads(render_json(findings))
        severities = {r["severity"] for r in document["findings"]}
        assert severities == {Severity.ERROR, Severity.WARNING}
        assert severities == {"error", "warning"}
