"""String substrate: alphabets, encodings, distances, noise, tokenization.

This package implements the symbolic side of the lookup problem — everything
EmbLookup's continuous representation is measured against.  The distance
functions here (Levenshtein, q-gram, Jaccard, BM25 scoring in
:mod:`repro.lookup.elastic`) are the similarity metrics the paper's baseline
services optimise for, and the noise injector reproduces the paper's error
taxonomy (Section IV-B).
"""

from repro.text.alphabet import Alphabet, DEFAULT_ALPHABET
from repro.text.distance import (
    damerau_levenshtein,
    jaccard_qgram_similarity,
    jaro_winkler,
    levenshtein,
    levenshtein_ratio,
    qgrams,
)
from repro.text.encoding import OneHotEncoder
from repro.text.noise import NoiseModel, NoiseSpec, abbreviate
from repro.text.tokenize import (
    normalize,
    normalized_tokens,
    word_tokens,
    wordpieces,
)

__all__ = [
    "Alphabet",
    "DEFAULT_ALPHABET",
    "NoiseModel",
    "NoiseSpec",
    "OneHotEncoder",
    "abbreviate",
    "damerau_levenshtein",
    "jaccard_qgram_similarity",
    "jaro_winkler",
    "levenshtein",
    "levenshtein_ratio",
    "normalize",
    "normalized_tokens",
    "qgrams",
    "word_tokens",
    "wordpieces",
]
