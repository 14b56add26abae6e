"""Runtime-net fixtures: seeded good/bad drivers for the lock-order
sanitizer (``lockorder_*``) and the array-contract validator (``arrays_*``).

Each ``*_violations.py`` makes its net fire and the paired ``*_clean.py``
does the same work correctly and must leave it silent; the tests execute
them (``tests/testing/test_sanitizer.py``, ``test_contract_validator.py``).
"""

from pathlib import Path

FIXTURES_DIR = Path(__file__).parent


def fixture_source(name: str) -> str:
    """Read fixture ``name`` (e.g. ``"lockorder_clean.py"``) as text."""
    return (FIXTURES_DIR / name).read_text(encoding="utf-8")
