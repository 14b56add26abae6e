"""One-hot character encoding of entity mentions (paper Section III-B).

A mention is encoded as an ``|A| x L`` matrix whose ``i``-th column is the
one-hot vector of the mention's ``i``-th character; columns beyond the
mention length are zero.  This is the input representation of the syntactic
CNN tower.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.text.alphabet import DEFAULT_ALPHABET, Alphabet

__all__ = ["OneHotEncoder"]


class OneHotEncoder:
    """Encodes strings into fixed-width one-hot matrices.

    Parameters
    ----------
    alphabet:
        Character inventory.  Characters outside the alphabet map to the
        unknown row (row 0).
    max_length:
        ``L`` in the paper — the width of the encoding.  Longer mentions are
        truncated; shorter ones are zero-padded on the right.
    """

    def __init__(self, alphabet: Alphabet = DEFAULT_ALPHABET, max_length: int = 48):
        if max_length <= 0:
            raise ValueError(f"max_length must be positive, got {max_length}")
        self.alphabet = alphabet
        self.max_length = max_length

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(|A|, L)`` of a single encoded mention."""
        return (self.alphabet.size, self.max_length)

    def encode(self, mention: str) -> np.ndarray:
        """Encode one mention into a float32 ``(|A|, L)`` matrix."""
        matrix = np.zeros(self.shape, dtype=np.float32)
        for col, ch in enumerate(mention[: self.max_length]):
            matrix[self.alphabet.position(ch), col] = 1.0
        return matrix

    def encode_batch(self, mentions: Sequence[str]) -> np.ndarray:
        """Encode mentions into a ``(batch, |A|, L)`` tensor."""
        batch = np.zeros((len(mentions), *self.shape), dtype=np.float32)
        rows = self.alphabet.position
        for b, mention in enumerate(mentions):
            for col, ch in enumerate(mention[: self.max_length]):
                batch[b, rows(ch), col] = 1.0
        return batch

    def encode_codes(self, mentions: Sequence[str]) -> np.ndarray:
        """Index form of :meth:`encode_batch`: ``(batch, L)`` row numbers.

        ``codes[b, l]`` is the alphabet position of the mention's ``l``-th
        character — the row that is 1 in column ``l`` of
        ``encode_batch(mentions)[b]`` — and ``alphabet.size`` (one past the
        last row) where that column is all zero.  Same truncation and
        unknown-character rule; 1 integer per column instead of ``|A|``
        floats.
        """
        length = self.max_length
        pad = self.alphabet.size
        positions = self.alphabet.positions
        flat: list[int] = []
        for mention in mentions:
            row = positions(mention[:length])
            flat += row
            flat += [pad] * (length - len(row))
        return np.array(flat, dtype=np.intp).reshape(len(mentions), length)

    def decode(self, matrix: np.ndarray) -> str:
        """Best-effort inverse of :meth:`encode` (unknowns become ``\\0``).

        Decoding stops at the first all-zero (padding) column.
        """
        if matrix.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {matrix.shape}")
        chars: list[str] = []
        for col in range(self.max_length):
            column = matrix[:, col]
            if not column.any():
                break
            chars.append(self.alphabet.char_at(int(column.argmax())))
        return "".join(chars)

    def __repr__(self) -> str:
        return f"OneHotEncoder(alphabet_size={self.alphabet.size}, L={self.max_length})"
