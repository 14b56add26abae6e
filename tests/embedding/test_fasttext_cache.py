"""The per-word n-gram id cache is invisible: same ids, hit or miss,
one thread or several, full or not."""

import sys
import threading

import numpy as np
import pytest

from repro.embedding import fasttext
from repro.embedding.fasttext import (
    _token_ngram_ids,
    _word_ngram_ids,
    subword_ngrams,
)

ALPHABET = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789'"))
CONFIGS = [(3, 5, 2**16), (1, 1, 7), (2, 6, 1000), (4, 4, 97)]


def _words_and_typos(rng, count):
    """Random ASCII tokens, each followed by a few one-edit typos of it."""
    out = []
    for _ in range(count):
        word = "".join(rng.choice(ALPHABET, size=rng.integers(1, 13)))
        out.append(word)
        for _ in range(int(rng.integers(0, 3))):
            at = int(rng.integers(0, len(word)))
            edit = rng.integers(0, 3)
            letter = str(rng.choice(ALPHABET))
            if edit == 0:
                out.append(word[:at] + letter + word[at + 1 :])
            elif edit == 1:
                out.append(word[:at] + letter + word[at:])
            elif len(word) > 1:
                out.append(word[:at] + word[at + 1 :])
    return out


class TestMemoisedIds:
    def test_memoised_equals_unmemoised(self):
        rng = np.random.default_rng(20)
        words = _words_and_typos(rng, 150)
        # Each word comes round three times: the later two are hits.
        order = rng.permutation(np.tile(np.arange(len(words)), 3))
        stream = [words[i] for i in order]
        before = _word_ngram_ids.cache_info().hits
        uncached = _word_ngram_ids.__wrapped__
        for min_n, max_n, buckets in CONFIGS:
            for word in stream:
                got = _word_ngram_ids(word, min_n, max_n, buckets)
                assert got == uncached(word, min_n, max_n, buckets), word
                assert isinstance(got, tuple)  # shared between callers
        assert _word_ngram_ids.cache_info().hits - before >= len(words)

    def test_mention_ids_are_its_words_ids_in_order(self):
        rng = np.random.default_rng(21)
        words = _words_and_typos(rng, 40)
        uncached = _word_ngram_ids.__wrapped__
        for start in range(0, len(words) - 3, 3):
            mention = " ".join(words[start : start + 3]).replace("'", "")
            tokens = mention.split()
            want = [i for t in tokens for i in uncached(t, 3, 5, 2**16)]
            assert subword_ngrams(mention) == want
            assert subword_ngrams(mention) == want  # and again, from the cache

    def test_callers_cannot_corrupt_each_other(self):
        first = _token_ngram_ids(["berlin"], 3, 5, 2**16)
        first.append(-1)
        first[0] = -1
        assert _token_ngram_ids(["berlin"], 3, 5, 2**16) == list(
            _word_ngram_ids.__wrapped__("berlin", 3, 5, 2**16)
        )

    def test_validation_is_not_cached_away(self):
        subword_ngrams("x")
        for _ in range(2):
            with pytest.raises(ValueError):
                subword_ngrams("x", min_n=4, max_n=2)
            with pytest.raises(ValueError):
                subword_ngrams("x", buckets=0)


class TestReaderBesideEviction:
    def test_reader_sees_exact_ids_while_the_cache_evicts(self):
        """One thread streams more distinct words than the cache holds, so
        it evicts continuously; a reader beside it keeps asking for the
        same few words — served from the cache, evicted, recomputed — and
        must get the unmemoised ids every time."""
        bound = fasttext._WORD_CACHE_SIZE
        assert _word_ngram_ids.cache_info().maxsize == bound
        watched = ["germany", "gernany", "new", "york", "o'clock", "a"]
        uncached = _word_ngram_ids.__wrapped__
        want = [list(uncached(w, 3, 5, 2**16)) for w in watched]
        stop = threading.Event()
        wrong: list[tuple] = []
        rounds = [0]

        def reader():
            while not stop.is_set():
                for word, ids in zip(watched, want):
                    got = _token_ngram_ids([word], 3, 5, 2**16)
                    if got != ids:
                        wrong.append((word, got))
                rounds[0] += 1

        def writer():
            fresh = (f"w{i:x}" for i in range(bound + bound // 4))
            _token_ngram_ids(fresh, 3, 5, 2**16)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        try:
            for thread in threads:
                thread.start()
            threads[1].join(timeout=60)
            assert not threads[1].is_alive()
        finally:
            stop.set()
            threads[0].join(timeout=10)
            sys.setswitchinterval(interval)
        assert not threads[0].is_alive()
        assert not wrong, wrong[:3]
        assert rounds[0] >= 10
        assert _word_ngram_ids.cache_info().currsize == bound  # it was full
