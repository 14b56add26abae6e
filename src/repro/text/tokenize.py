"""Normalisation and tokenisation helpers for mentions and labels."""

from __future__ import annotations

import re
import unicodedata

__all__ = ["normalize", "normalized_tokens", "word_tokens", "wordpieces"]

_WS_RE = re.compile(r"\s+")
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")


def normalize(text: str) -> str:
    """Canonicalise a mention: NFKD fold, lowercase, collapse whitespace.

    Diacritics are stripped (``Müller`` -> ``muller``) so that the character
    alphabet stays compact; this mirrors the preprocessing applied before
    one-hot encoding in the paper's public code.
    """
    decomposed = unicodedata.normalize("NFKD", text)
    ascii_text = decomposed.encode("ascii", "ignore").decode("ascii")
    return _WS_RE.sub(" ", ascii_text.lower()).strip()


def normalized_tokens(normalized: str) -> list[str]:
    """Word tokens of a string that :func:`normalize` already produced.

    The tokens are ASCII by construction (``[a-z0-9']``).  Hot paths that
    hold the normalised form call this instead of :func:`word_tokens`,
    which would fold the string a second time.
    """
    return _TOKEN_RE.findall(normalized)


def word_tokens(text: str) -> list[str]:
    """Alphanumeric word tokens of ``text`` after :func:`normalize`."""
    return normalized_tokens(normalize(text))


def wordpieces(token: str, vocabulary: set[str], max_piece: int = 8) -> list[str]:
    """Greedy longest-match-first wordpiece split of ``token``.

    Used by the BERT-style baseline embedder (Table VII).  Pieces after the
    first are prefixed with ``##`` following the WordPiece convention.  When
    no vocabulary piece matches, falls back to single characters.
    """
    pieces: list[str] = []
    start = 0
    while start < len(token):
        end = min(len(token), start + max_piece)
        matched = None
        while end > start:
            piece = token[start:end]
            key = piece if start == 0 else "##" + piece
            if key in vocabulary or len(piece) == 1:
                matched = key if key in vocabulary else piece if start == 0 else "##" + piece
                break
            end -= 1
        assert matched is not None
        pieces.append(matched)
        start = end
    return pieces
