"""Runtime-net fixtures: seeded good/bad drivers for the lock-order
sanitizer (``lockorder_*``).

``lockorder_violations.py`` makes the sanitizer fire and
``lockorder_clean.py`` does the same work correctly and must leave it
silent; ``tests/testing/test_sanitizer.py`` executes them.
"""

from pathlib import Path

FIXTURES_DIR = Path(__file__).parent


def fixture_source(name: str) -> str:
    """Read fixture ``name`` (e.g. ``"lockorder_clean.py"``) as text."""
    return (FIXTURES_DIR / name).read_text(encoding="utf-8")
