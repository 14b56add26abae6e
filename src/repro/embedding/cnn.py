"""Character-CNN tower for syntactic similarity (paper Section III-B).

The paper specifies 5 convolutional layers with 8 kernels of size 3 and
max-pooling aggregation; CNN+max-pooling over one-hot strings preserves
edit-distance bounds (its inductive bias for typos).  We pool the sequence
length down between layers and project the flattened activations to the
output dimension with a linear head.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.embedding.inference import embed_cnn
from repro.nn import functional as F
from repro.nn.layers import Conv1d, Linear, Module
from repro.nn.tensor import Tensor
from repro.text.encoding import OneHotEncoder
from repro.utils.rng import as_rng

__all__ = ["CharCNNEncoder"]


class CharCNNEncoder(Module):
    """5-layer character CNN: codes ``(N, L)`` -> ``(N, out_dim)``.

    Parameters
    ----------
    encoder:
        One-hot encoder defining the alphabet and max length ``L``.
    out_dim:
        Output embedding dimensionality (64 in the paper).
    channels:
        Kernels per convolutional layer (8 in the paper).
    num_layers:
        Convolutional depth (5 in the paper).
    pool_every:
        A stride-2 max-pool is inserted after every ``pool_every``-th conv
        layer, shrinking the sequence before the flatten + linear head.
    """

    def __init__(
        self,
        encoder: OneHotEncoder,
        out_dim: int = 64,
        channels: int = 8,
        num_layers: int = 5,
        pool_every: int = 2,
        rng: int | np.random.Generator | None = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        generator = as_rng(rng)
        self.encoder = encoder
        self.out_dim = out_dim
        self.channels = channels
        self.num_layers = num_layers
        self.pool_every = pool_every

        length = encoder.max_length
        in_channels = encoder.alphabet.size
        self._convs: list[Conv1d] = []
        self._pool_after: list[bool] = []
        for layer in range(num_layers):
            conv = Conv1d(
                in_channels, channels, kernel_size=3, padding=1, rng=generator
            )
            setattr(self, f"conv{layer}", conv)
            self._convs.append(conv)
            in_channels = channels
            pool_here = pool_every > 0 and (layer + 1) % pool_every == 0 and length >= 2
            self._pool_after.append(pool_here)
            if pool_here:
                length //= 2
        self._final_length = length
        self.head = Linear(channels * length, out_dim, rng=generator)

    @property
    def dim(self) -> int:
        return self.out_dim

    @property
    def conv_layers(self) -> Sequence[Conv1d]:
        """The convolutional layers, input side first."""
        return self._convs

    @property
    def pool_after(self) -> Sequence[bool]:
        """Per conv layer: whether a stride-2 max-pool follows it."""
        return self._pool_after

    def forward(self, codes: np.ndarray) -> Tensor:
        """Encode ``(N, L)`` code matrices to embeddings ``(N, out_dim)``.

        ``codes`` is :meth:`OneHotEncoder.encode_codes` of the mentions —
        the index form of the one-hot input, which layer 1 convolves as a
        gather (:func:`repro.nn.functional.conv1d_codes`).
        """
        codes = np.asarray(codes, dtype=np.intp)
        if codes.ndim != 2 or codes.shape[1] != self.encoder.max_length:
            raise ValueError(
                f"expected (N, {self.encoder.max_length}) codes from "
                f"OneHotEncoder.encode_codes, got shape {codes.shape}"
            )
        first = self._convs[0]
        x = F.conv1d_codes(codes, first.weight, first.bias)
        for layer, (conv, pool) in enumerate(zip(self._convs, self._pool_after)):
            if layer:
                x = conv(x)
            x = x.relu()
            if pool:
                x = F.max_pool1d(x, kernel=2, stride=2)
        n = x.shape[0]
        flat = x.reshape(n, self.channels * self._final_length)
        return self.head(flat)

    def embed(self, mentions: Sequence[str]) -> np.ndarray:
        """Inference helper: strings -> float32 embeddings (no autograd)."""
        return embed_cnn(self, mentions)
