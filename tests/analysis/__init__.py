"""Tests for the repository's linter (``tools/lint``, run by ``tools/run_lint.py``)."""
