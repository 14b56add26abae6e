"""fastText-style subword embedding model (Bojanowski et al.).

A mention is represented by the mean of hashed character n-gram vectors
(plus whole-word vectors), trained with skip-gram negative sampling so that
an entity's label and its aliases land close together — the semantic tower
of EmbLookup.  Hashing makes the model open-vocabulary: unseen or misspelled
words still produce (partially overlapping) n-grams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.embedding.inference import embed_fasttext
from repro.nn.layers import EmbeddingBag, Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.text.tokenize import normalize, normalized_tokens, word_tokens
from repro.utils.rng import as_rng

__all__ = ["FastTextConfig", "FastTextModel", "subword_ngrams"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

#: Distinct ``(word, min_n, max_n, buckets)`` entries kept by
#: :func:`_word_ngram_ids`.  An entry measures about 1 KB (a 3-12 letter
#: word is ~30 boxed ids), so the cache tops out near 32 MB however many
#: strings pass through; a KG's label vocabulary fits, typos churn the tail.
_WORD_CACHE_SIZE = 1 << 15


@functools.lru_cache(maxsize=_WORD_CACHE_SIZE)
def _word_ngram_ids(
    word: str, min_n: int, max_n: int, buckets: int
) -> tuple[int, ...]:
    """Bucket ids of one ASCII word token: ``<word>``, then its n-grams.

    64-bit FNV-1a (stable across runs, unlike built-in ``hash``) is a
    streaming hash, so the state after the ``n`` bytes starting at ``i``
    extends to the ``(n + 1)``-gram at ``i`` with one more step: a start
    position costs ``max_n`` steps, not ``min_n + ... + max_n``.  Ids are
    emitted whole word first, then all ``min_n``-grams, ..., then all
    ``max_n``-grams.  The token is ASCII, so bytes and characters coincide.

    Memoised: KG labels and table cells reuse words, and a pure function of
    four hashable values returning an immutable tuple is safe to share
    between threads (``lru_cache`` locks its own bookkeeping).
    """
    data = f"<{word}>".encode("ascii")
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
    ids = [value % buckets]
    by_n: list[list[int]] = [[] for _ in range(min_n, max_n + 1)]
    for start in range(len(data) - min_n + 1):
        value = _FNV_OFFSET
        for byte in data[start : start + min_n - 1]:
            value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
        # zip stops at the word's end: late starts emit only short grams.
        for grams, byte in zip(by_n, data[start + min_n - 1 : start + max_n]):
            value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
            grams.append(value % buckets)
    for grams in by_n:
        ids += grams
    return tuple(ids)


def _token_ngram_ids(
    words: Iterable[str], min_n: int, max_n: int, buckets: int
) -> list[int]:
    """Bucket ids of ASCII word tokens, word by word
    (:func:`_word_ngram_ids`); the arguments are checked here, outside
    the per-word cache."""
    if min_n < 1 or max_n < min_n:
        raise ValueError(f"invalid n-gram range [{min_n}, {max_n}]")
    if buckets < 1:
        raise ValueError(f"buckets must be positive, got {buckets}")
    ids: list[int] = []
    for word in words:
        ids += _word_ngram_ids(word, min_n, max_n, buckets)
    return ids


def subword_ngrams(
    mention: str, min_n: int = 3, max_n: int = 5, buckets: int = 2**16
) -> list[int]:
    """Hashed bucket ids for the mention's character n-grams and words.

    Each word is wrapped in boundary markers (``<word>``) before n-gram
    extraction, as in fastText; the whole word is hashed too.
    """
    return _token_ngram_ids(word_tokens(mention), min_n, max_n, buckets)


@dataclass(frozen=True)
class FastTextConfig:
    """Hyperparameters for :class:`FastTextModel`."""

    dim: int = 64
    buckets: int = 2**16
    min_n: int = 3
    max_n: int = 5
    negatives: int = 4
    epochs: int = 5
    batch_size: int = 256
    lr: float = 0.05
    seed: int = 13

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


class FastTextModel(Module):
    """Subword-hashing embedder trained on (mention, synonym) pairs."""

    def __init__(self, config: FastTextConfig | None = None):
        super().__init__()
        self.config = config or FastTextConfig()
        self.rng = as_rng(self.config.seed)
        self.bag = EmbeddingBag(self.config.buckets, self.config.dim, rng=self.rng)
        self._trained = False

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def is_trained(self) -> bool:
        return self._trained

    def bags(self, normalized: Sequence[str]) -> list[list[int]]:
        """Subword bucket ids of mentions that are already ``normalize``d."""
        cfg = self.config
        return [
            _token_ngram_ids(normalized_tokens(m), cfg.min_n, cfg.max_n, cfg.buckets)
            for m in normalized
        ]

    def embed(self, mentions: Sequence[str]) -> np.ndarray:
        """Mean-of-subword-vectors embedding, ``(n, dim)`` float32."""
        return embed_fasttext(self, [normalize(m) for m in mentions])

    def embed_tensor(self, mentions: Sequence[str]) -> Tensor:
        """Differentiable embedding (used when fine-tuned inside EmbLookup)."""
        return self.bag.forward_bags(self.bags([normalize(m) for m in mentions]))

    def fit_anchored(
        self, synonym_groups: Sequence[Sequence[str]]
    ) -> "FastTextModel":
        """Train by anchored regression: co-locate each entity's mentions.

        Every group (an entity's label + aliases) is assigned a fixed
        random unit-vector target and all of its surface forms regress
        onto it with MSE.  This optimises the stated goal directly —
        "embeddings of entity names and their synonyms are close
        together" — and, unlike SGNS over hashed n-grams, it does not
        make shared buckets fight each other, so semantically-only
        aliases (abbreviations, translations) co-locate reliably even at
        small training budgets.  It is both stronger and ~3x faster than
        :meth:`fit` on KG-sized corpora, and is the EmbLookup pipeline's
        default semantic-tower objective.
        """
        cfg = self.config
        pairs: list[tuple[str, np.ndarray]] = []
        for group in synonym_groups:
            forms = [normalize(m) for m in group if m]
            if not forms:
                continue
            target = self.rng.normal(size=cfg.dim)
            target /= np.linalg.norm(target) + 1e-12
            for form in forms:
                pairs.append((form, target))
        if not pairs:
            self._trained = True
            return self

        from repro.nn.loss import mse_loss

        optimizer = Adam(self.parameters(), lr=max(cfg.lr / 5.0, 1e-3))
        order = np.arange(len(pairs), dtype=np.int64)
        # Stack the targets once; the per-batch np.stack over a Python
        # list re-copied every target every epoch.
        target_matrix = np.stack([pair[1] for pair in pairs])
        for _ in range(max(cfg.epochs, 1)):
            self.rng.shuffle(order)
            for start in range(0, len(order), cfg.batch_size):
                chunk = order[start : start + cfg.batch_size]
                mentions = [pairs[i][0] for i in chunk]
                targets = target_matrix[chunk]
                loss = mse_loss(
                    self.bag.forward_bags(self.bags(mentions)), Tensor(targets)
                )
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        self._trained = True
        return self

    def fit(self, synonym_groups: Sequence[Sequence[str]]) -> "FastTextModel":
        """Train with skip-gram negative sampling over synonym groups.

        Each group holds the surface forms of one entity (label + aliases);
        positives are pairs within a group, negatives are mentions sampled
        from other groups.  (The EmbLookup pipeline defaults to
        :meth:`fit_anchored`, which is stronger on alias co-location; this
        SGNS variant matches the published fastText objective and backs
        the Table VII baseline.)
        """
        pairs: list[tuple[str, str]] = []
        all_mentions: list[str] = []
        for group in synonym_groups:
            forms = [normalize(m) for m in group if m]
            all_mentions.extend(forms)
            for i, anchor in enumerate(forms):
                for j, other in enumerate(forms):
                    if i != j:
                        pairs.append((anchor, other))
        if not pairs or not all_mentions:
            self._trained = True
            return self

        optimizer = Adam(self.parameters(), lr=self.config.lr)
        cfg = self.config
        pair_arr = np.arange(len(pairs), dtype=np.int64)
        for _ in range(cfg.epochs):
            self.rng.shuffle(pair_arr)
            for start in range(0, len(pair_arr), cfg.batch_size):
                batch_idx = pair_arr[start : start + cfg.batch_size]
                anchors = [pairs[i][0] for i in batch_idx]
                positives = [pairs[i][1] for i in batch_idx]
                negatives = [
                    all_mentions[int(self.rng.integers(0, len(all_mentions)))]
                    for _ in range(len(batch_idx) * cfg.negatives)
                ]
                loss = self._sgns_loss(anchors, positives, negatives)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        self._trained = True
        return self

    def _sgns_loss(
        self,
        anchors: Sequence[str],
        positives: Sequence[str],
        negatives: Sequence[str],
    ) -> Tensor:
        """-log s(a.p) - sum -log s(-a.n), averaged over the batch."""
        cfg = self.config
        a = self.bag.forward_bags(self.bags(anchors))            # (B, D)
        p = self.bag.forward_bags(self.bags(positives))          # (B, D)
        n = self.bag.forward_bags(self.bags(negatives))          # (B*neg, D)
        batch = a.shape[0]

        pos_score = (a * p).sum(axis=1)                          # (B,)
        pos_loss = _softplus(-pos_score)

        n_resh = n.reshape(batch, cfg.negatives, cfg.dim)
        a_expanded = a.reshape(batch, 1, cfg.dim)
        neg_score = (a_expanded * n_resh).sum(axis=2)            # (B, neg)
        neg_loss = _softplus(neg_score).sum(axis=1)

        return (pos_loss + neg_loss).mean()


def _softplus(x: Tensor) -> Tensor:
    """Numerically-stable ``log(1 + exp(x))`` = relu(x) + log1p(exp(-|x|))."""
    # log(1+exp(x)) = max(x,0) + log(1+exp(-|x|))
    positive_part = x.relu()
    abs_x = (x * x).sqrt()
    return positive_part + ((-abs_x).exp() + 1.0).log()
