"""The EmbLookup dual-tower embedding model (paper Figure 2).

``embedding = MLP([CharCNN(one-hot(m)); fastText(m)])`` — the CNN tower
carries syntactic similarity, the fastText tower semantic similarity, and a
two-layer ReLU MLP fuses them into a single 64-d vector trained end-to-end
with triplet loss (the fastText tower is pre-trained on the alias corpus
and optionally fine-tuned).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.embedding.cnn import CharCNNEncoder
from repro.embedding.fasttext import FastTextModel
from repro.embedding.inference import embed_dual_tower
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, concatenate
from repro.text.encoding import OneHotEncoder
from repro.text.tokenize import normalize
from repro.utils.rng import as_rng

__all__ = ["EmbLookupModel", "MentionInputs"]


class MentionInputs(NamedTuple):
    """Per-string inputs of :meth:`EmbLookupModel.forward_rows`.

    ``codes`` is the ``(n, L)`` code matrix of the CNN tower.  ``semantic``
    is the fastText tower's input: its frozen ``(n, dim)`` vectors, or,
    when it is fine-tuned, each mention's subword bucket ids.
    """

    codes: np.ndarray
    semantic: np.ndarray | list[list[int]]


class EmbLookupModel(Module):
    """CNN + fastText towers fused by a two-layer MLP.

    Parameters
    ----------
    encoder:
        One-hot encoder shared with the CNN tower.
    fasttext:
        A (typically pre-trained) :class:`FastTextModel`; its parameters are
        frozen during triplet training unless ``finetune_fasttext`` is true.
    out_dim:
        Final embedding dimensionality (64 in the paper).
    finetune_fasttext:
        When true, triplet-loss gradients flow into the fastText bucket
        table as well.
    normalize_output:
        When true, embeddings are L2-normalised, making the Euclidean
        ranking equivalent to cosine and keeping triplet distances on the
        margin's scale.
    """

    def __init__(
        self,
        encoder: OneHotEncoder,
        fasttext: FastTextModel,
        out_dim: int = 64,
        hidden_dim: int | None = None,
        finetune_fasttext: bool = False,
        normalize_output: bool = False,
        rng: int | np.random.Generator | None = None,
    ):
        super().__init__()
        generator = as_rng(rng)
        self.encoder = encoder
        self.out_dim = out_dim
        self.finetune_fasttext = finetune_fasttext
        self.normalize_output = normalize_output
        self.cnn = CharCNNEncoder(encoder, out_dim=out_dim, rng=generator)
        self.fasttext = fasttext
        fused = out_dim + fasttext.dim
        hidden = hidden_dim or fused
        self.fuse1 = Linear(fused, hidden, rng=generator)
        self.fuse2 = Linear(hidden, out_dim, rng=generator)

    @property
    def dim(self) -> int:
        return self.out_dim

    def parameters(self):
        """Trainable parameters; excludes frozen fastText weights."""
        for name, param in self.named_parameters():
            if not self.finetune_fasttext and name.startswith("fasttext."):
                continue
            yield param

    def forward_mentions(self, mentions: Sequence[str]) -> Tensor:
        """Differentiable forward pass over raw mention strings."""
        return self.forward_rows(
            self.mention_inputs(mentions), np.arange(len(mentions), dtype=np.intp)
        )

    def mention_inputs(self, mentions: Sequence[str]) -> MentionInputs:
        """What the forward computes from each string on its own.

        Row ``i`` depends on ``mentions[i]`` alone, so a table built once
        over every distinct training mention and gathered per batch
        (:meth:`forward_rows`) is bit-equal to encoding each batch afresh.
        """
        codes = self.encoder.encode_codes(mentions)
        if self.finetune_fasttext:
            return MentionInputs(
                codes, self.fasttext.bags([normalize(m) for m in mentions])
            )
        return MentionInputs(codes, self.fasttext.embed(mentions))

    def forward_rows(self, inputs: MentionInputs, rows: np.ndarray) -> Tensor:
        """Differentiable forward pass over rows ``rows`` of ``inputs``."""
        syntactic = self.cnn(inputs.codes[rows])
        if self.finetune_fasttext:
            bags = inputs.semantic
            semantic = self.fasttext.bag.forward_bags([bags[i] for i in rows])
        else:
            semantic = Tensor(inputs.semantic[rows])
        fused = concatenate([syntactic, semantic], axis=1)
        out = self.fuse2(self.fuse1(fused).relu())
        if self.normalize_output:
            norm = (out * out).sum(axis=1, keepdims=True).sqrt() + 1e-8
            out = out / norm
        return out

    def forward(self, *args: Tensor) -> Tensor:  # pragma: no cover
        """Unsupported; use :meth:`forward_mentions` (string input)."""
        raise TypeError("EmbLookupModel requires forward_mentions(mentions)")

    def embed(self, mentions: Sequence[str]) -> np.ndarray:
        """Inference: strings -> float32 embeddings, no autograd objects."""
        return embed_dual_tower(self, mentions, [normalize(m) for m in mentions])

    def embed_normalized(self, normalized: Sequence[str]) -> np.ndarray:
        """:meth:`embed` for strings that are already ``normalize``d.

        Same result; the fastText tower tokenises them as given instead of
        folding each a second time.
        """
        return embed_dual_tower(self, normalized, normalized)
