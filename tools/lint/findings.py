"""The :class:`Finding` record emitted by every lint rule and contract check."""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Finding", "Severity"]


class Severity:
    """Finding severity levels, ordered from most to least severe."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes
    ----------
    rule:
        Rule identifier (e.g. ``REP101``).
    path:
        File path as linted (posix-style, relative where possible).
    line / col:
        1-based line and 0-based column of the offending node.
    severity:
        ``"error"`` (breaks an invariant) or ``"warning"`` (hygiene).
    message:
        Human-readable description of the violation.
    """

    rule: str
    path: str
    line: int
    col: int
    severity: str
    message: str

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (used by the JSON reporter)."""
        return asdict(self)
