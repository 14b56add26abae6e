"""Tests for repro.text.tokenize."""

from repro.text.tokenize import (
    normalize,
    normalized_tokens,
    word_tokens,
    wordpieces,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("BERLIN") == "berlin"

    def test_strips_diacritics(self):
        assert normalize("Müller") == "muller"
        assert normalize("Café") == "cafe"

    def test_collapses_whitespace(self):
        assert normalize("  new   york  ") == "new york"

    def test_idempotent(self):
        for text in ["Weird   Cåse", "already normal", ""]:
            once = normalize(text)
            assert normalize(once) == once


class TestWordTokens:
    def test_splits_words(self):
        assert word_tokens("new york city") == ["new", "york", "city"]

    def test_handles_punctuation(self):
        assert word_tokens("o'brien & co.") == ["o'brien", "co"]

    def test_numbers_kept(self):
        assert word_tokens("route 66") == ["route", "66"]

    def test_empty(self):
        assert word_tokens("") == []

    def test_normalized_tokens_skips_only_the_fold(self):
        for text in ["O'Brien & Co.", "  Route   66 ", "Müller", "北京", ""]:
            assert normalized_tokens(normalize(text)) == word_tokens(text)


class TestWordpieces:
    def test_greedy_longest_match(self):
        vocab = {"ber", "##lin", "b", "e", "r", "##l", "##i", "##n"}
        assert wordpieces("berlin", vocab) == ["ber", "##lin"]

    def test_falls_back_to_chars(self):
        pieces = wordpieces("xyz", set())
        assert pieces == ["x", "##y", "##z"]

    def test_reconstruction(self):
        vocab = {"ger", "##many"}
        pieces = wordpieces("germany", vocab)
        rebuilt = pieces[0] + "".join(p.removeprefix("##") for p in pieces[1:])
        assert rebuilt == "germany"

    def test_max_piece_respected(self):
        vocab = {"abcdefghij"}
        pieces = wordpieces("abcdefghij", vocab, max_piece=4)
        assert all(len(p.removeprefix("##")) <= 4 for p in pieces)
