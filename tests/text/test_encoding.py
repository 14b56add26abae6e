"""Tests for repro.text.encoding (one-hot mention encoding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.alphabet import Alphabet
from repro.text.encoding import OneHotEncoder

ALPHABET = Alphabet("abcde ")
ENCODER = OneHotEncoder(ALPHABET, max_length=8)


class TestEncode:
    def test_paper_example(self):
        """The worked example of Section III-B: 'cad' over A={a..e}, L=4."""
        encoder = OneHotEncoder(Alphabet("abcde"), max_length=4)
        matrix = encoder.encode("cad")
        # Positions are 1-based (slot 0 = unknown).
        assert matrix[encoder.alphabet.position("c"), 0] == 1.0
        assert matrix[encoder.alphabet.position("a"), 1] == 1.0
        assert matrix[encoder.alphabet.position("d"), 2] == 1.0
        assert matrix[:, 3].sum() == 0.0

    def test_shape(self):
        assert ENCODER.encode("abc").shape == (ALPHABET.size, 8)

    def test_one_hot_columns(self):
        matrix = ENCODER.encode("abcde")
        assert (matrix.sum(axis=0)[:5] == 1.0).all()

    def test_padding_zero(self):
        matrix = ENCODER.encode("ab")
        assert matrix[:, 2:].sum() == 0.0

    def test_truncates_long_mentions(self):
        matrix = ENCODER.encode("a" * 100)
        assert matrix.shape == (ALPHABET.size, 8)
        assert matrix.sum() == 8.0

    def test_unknown_chars_hit_row_zero(self):
        matrix = ENCODER.encode("z")
        assert matrix[0, 0] == 1.0

    def test_empty_string_all_zero(self):
        assert ENCODER.encode("").sum() == 0.0

    def test_dtype_float32(self):
        assert ENCODER.encode("abc").dtype == np.float32


class TestEncodeBatch:
    def test_batch_matches_single(self):
        mentions = ["abc", "de", ""]
        batch = ENCODER.encode_batch(mentions)
        for i, mention in enumerate(mentions):
            np.testing.assert_array_equal(batch[i], ENCODER.encode(mention))

    def test_empty_batch(self):
        assert ENCODER.encode_batch([]).shape == (0, ALPHABET.size, 8)


class TestEncodeCodes:
    def test_is_the_index_form_of_encode_batch(self):
        """Row ``codes[b, l]`` is the 1 of column ``l``; ``|A|`` marks an
        all-zero column.  Unknown characters, truncation and empty
        strings follow ``encode_batch``."""
        mentions = ["abc", "de", "", "a?c", "abcdeabcdeabc", " "]
        codes = ENCODER.encode_codes(mentions)
        assert codes.shape == (len(mentions), 8)
        onehot = np.zeros((len(mentions), ALPHABET.size + 1, 8), np.float32)
        np.put_along_axis(onehot, codes[:, None, :], 1.0, axis=1)
        np.testing.assert_array_equal(
            onehot[:, : ALPHABET.size], ENCODER.encode_batch(mentions)
        )

    def test_empty_batch(self):
        assert ENCODER.encode_codes([]).shape == (0, 8)


class TestDecode:
    def test_roundtrip_known_chars(self):
        for mention in ["abc", "a b", "edcba"]:
            assert ENCODER.decode(ENCODER.encode(mention)) == mention

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ENCODER.decode(np.zeros((2, 2)))

    @given(st.text(alphabet="abcde ", max_size=8))
    @settings(max_examples=80)
    def test_roundtrip_property(self, mention):
        # Trailing spaces are preserved; only padding (zero columns) ends
        # decoding, so roundtrip is exact for in-alphabet strings.
        assert ENCODER.decode(ENCODER.encode(mention)) == mention


class TestValidation:
    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            OneHotEncoder(ALPHABET, max_length=0)
