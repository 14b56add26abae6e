"""Alphabet abstraction for the character-level encoder.

The paper one-hot encodes entity mentions over a fixed alphabet ``A`` (the
character inventory of the KG labels).  We model that inventory explicitly:
the alphabet maps characters to contiguous positions, reserves slot 0 for
unknown characters, and can be *fit* from a corpus so that rarely-seen
characters fall back to the unknown slot rather than exploding the encoding
width.
"""

from __future__ import annotations

import string
from collections import Counter
from collections.abc import Iterable

__all__ = ["Alphabet", "DEFAULT_ALPHABET"]


class Alphabet:
    """An ordered character inventory with an explicit unknown slot.

    Position 0 is always the unknown character; real characters occupy
    positions ``1 .. len(chars)``.  ``size`` therefore equals
    ``len(chars) + 1``.
    """

    UNKNOWN = "\0"

    def __init__(self, chars: Iterable[str]):
        ordered: list[str] = []
        seen: set[str] = set()
        for ch in chars:
            if len(ch) != 1:
                raise ValueError(f"alphabet entries must be single chars, got {ch!r}")
            if ch == self.UNKNOWN:
                raise ValueError("the NUL character is reserved for unknowns")
            if ch not in seen:
                seen.add(ch)
                ordered.append(ch)
        if not ordered:
            raise ValueError("alphabet must contain at least one character")
        self._chars: tuple[str, ...] = tuple(ordered)
        self._pos: dict[str, int] = {ch: i + 1 for i, ch in enumerate(ordered)}

    @classmethod
    def fit(
        cls,
        corpus: Iterable[str],
        min_count: int = 1,
        max_size: int | None = None,
    ) -> "Alphabet":
        """Build an alphabet from the characters appearing in ``corpus``.

        Characters rarer than ``min_count`` are dropped (they will encode to
        the unknown slot).  When ``max_size`` is given, only the most frequent
        characters are kept.
        """
        counts = Counter(ch for text in corpus for ch in text)
        frequent = [
            (ch, n) for ch, n in counts.items() if n >= min_count and ch != cls.UNKNOWN
        ]
        # Sort by frequency (desc) then codepoint for a stable inventory.
        frequent.sort(key=lambda item: (-item[1], item[0]))
        if max_size is not None:
            frequent = frequent[:max_size]
        if not frequent:
            raise ValueError("corpus produced an empty alphabet")
        return cls(sorted(ch for ch, _ in frequent))

    @property
    def chars(self) -> tuple[str, ...]:
        return self._chars

    @property
    def size(self) -> int:
        """Number of encoding rows, including the unknown slot."""
        return len(self._chars) + 1

    def position(self, ch: str) -> int:
        """Positional index of ``ch``; 0 when the character is unknown."""
        return self._pos.get(ch, 0)

    def positions(self, text: str) -> list[int]:
        """:meth:`position` of every character of ``text``, in order."""
        get = self._pos.get
        return [get(ch, 0) for ch in text]

    def char_at(self, position: int) -> str:
        """Inverse of :meth:`position`; position 0 maps to the unknown char."""
        if position == 0:
            return self.UNKNOWN
        return self._chars[position - 1]

    def __contains__(self, ch: str) -> bool:
        return ch in self._pos

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self._chars == other._chars

    def __repr__(self) -> str:
        preview = "".join(self._chars[:16])
        suffix = "..." if len(self._chars) > 16 else ""
        return f"Alphabet({len(self._chars)} chars: {preview!r}{suffix})"


#: Lowercase ASCII letters, digits, space and common punctuation — enough for
#: the normalised KG labels the synthetic generator produces.
DEFAULT_ALPHABET = Alphabet(string.ascii_lowercase + string.digits + " .-'&,()/")
