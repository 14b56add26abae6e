"""Inference-only forward of the dual tower: plain ``ndarray`` in and out.

The ``embed`` methods of :class:`~repro.embedding.cnn.CharCNNEncoder`,
:class:`~repro.embedding.fasttext.FastTextModel` and
:class:`~repro.embedding.emblookup_model.EmbLookupModel` are these
functions; the autograd ``forward`` / ``forward_mentions`` stay as the
training path and as the reference the equivalence property compares
against (``tests/property/test_differential.py``).  No ``Tensor`` is built
here, so a lookup pays for arithmetic and not for a tape it never walks.

The CNN runs channels-last, ``(N, L, C)``:

- **layer 1 is a gather.**  Its input is one-hot, so
  ``x[:, l] = T0[c[l-1]] + T1[c[l]] + T2[c[l+1]] + b`` where ``c`` is the
  ``(N, L)`` code matrix of :meth:`OneHotEncoder.encode_codes` and
  ``Tk = W[:, :, k].T`` with one zero row appended for the pad code — the
  dense ``(N, |A|, L)`` tensor is never built.  The kernel is
  :func:`repro.nn.functional.conv3_gather`, which training's
  ``conv1d_codes`` runs too;
- **layers 2+ are one GEMM each**: three shifted slices of the
  activations side by side in a zeroed ``(N·L, 3C)`` buffer against the
  kernel laid out as ``(3C, C)``, bias and ReLU in place, stride-2
  pooling as the ``maximum`` of the even and the odd rows.

Every call reads the live ``param.data`` arrays (optimizers and
``load_state_dict`` write them in place) and re-lays the few hundred
kernel floats out afresh, so there is nothing to invalidate when weights
change; every call allocates its own buffers, so the engine's flush thread
and its callers can embed concurrently.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.functional import conv3_gather

if TYPE_CHECKING:
    from repro.embedding.cnn import CharCNNEncoder
    from repro.embedding.emblookup_model import EmbLookupModel
    from repro.embedding.fasttext import FastTextModel

__all__ = ["embed_cnn", "embed_dual_tower", "embed_fasttext"]


def embed_cnn(cnn: CharCNNEncoder, mentions: Sequence[str]) -> np.ndarray:
    """``CharCNNEncoder.forward`` over raw strings, ``(n, out_dim)`` float32."""
    if not mentions:
        return np.empty((0, cnn.out_dim), dtype=np.float32)
    return _conv_tower(cnn, mentions).astype(np.float32, copy=False)


def embed_fasttext(fasttext: FastTextModel, normalized: Sequence[str]) -> np.ndarray:
    """Mean subword vector of each already-normalised mention, float32."""
    if not normalized:
        return np.empty((0, fasttext.dim), dtype=np.float32)
    return _bag_means(fasttext, normalized).astype(np.float32, copy=False)


def embed_dual_tower(
    model: EmbLookupModel, mentions: Sequence[str], normalized: Sequence[str]
) -> np.ndarray:
    """``EmbLookupModel.forward_mentions`` without the tape, float32.

    The CNN tower reads ``mentions`` as given; the fastText tower
    tokenises ``normalized``, which must be ``normalize(m)`` of each.
    """
    if not mentions:
        return np.empty((0, model.out_dim), dtype=np.float32)
    fused = np.concatenate(
        (_conv_tower(model.cnn, mentions), _bag_means(model.fasttext, normalized)),
        axis=1,
    )
    hidden = fused @ model.fuse1.weight.data.T
    _bias_relu(hidden, model.fuse1.bias.data)
    out = hidden @ model.fuse2.weight.data.T
    out += model.fuse2.bias.data
    if model.normalize_output:
        norm = np.sqrt((out * out).sum(axis=1, keepdims=True))
        norm += 1e-8
        out /= norm
    return out.astype(np.float32, copy=False)


def _bias_relu(x: np.ndarray, bias: np.ndarray) -> None:
    x += bias
    np.maximum(x, 0.0, out=x)


def _conv_tower(cnn: CharCNNEncoder, mentions: Sequence[str]) -> np.ndarray:
    """Kernel-3, pad-1 conv stack + linear head, channels-last."""
    codes = cnn.encoder.encode_codes(mentions)
    x = conv3_gather(codes, cnn.conv_layers[0].weight.data)
    for layer, (conv, pool) in enumerate(zip(cnn.conv_layers, cnn.pool_after)):
        if layer:
            x = _conv3(x, conv.weight.data)
        _bias_relu(x, conv.bias.data)
        if pool:
            paired = x.shape[1] // 2 * 2
            x = np.maximum(x[:, 0:paired:2], x[:, 1:paired:2])
    # The head's columns are channel-major (c * L + l): put the few
    # activations in that order rather than re-laying the weight out.
    flat = x.transpose(0, 2, 1).reshape(len(x), -1)
    out = flat @ cnn.head.weight.data.T
    out += cnn.head.bias.data
    return out


def _conv3(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``(N, L, Ci)`` -> ``(N, L, Co)``: shifted slices, then one GEMM."""
    n, length, channels = x.shape
    # cols[:, l] = [x[l-1] | x[l] | x[l+1]], zero beyond either edge.
    cols = np.zeros((n, length, 3 * channels), dtype=x.dtype)
    cols[:, 1:, :channels] = x[:, :-1]
    cols[:, :, channels : 2 * channels] = x
    cols[:, :-1, 2 * channels :] = x[:, 1:]
    kernel = weight.transpose(2, 1, 0).reshape(3 * channels, -1)
    return (cols.reshape(n * length, -1) @ kernel).reshape(n, length, -1)


def _bag_means(fasttext: FastTextModel, normalized: Sequence[str]) -> np.ndarray:
    """Per-mention mean of the gathered bucket rows; empty bags give zeros."""
    weight = fasttext.bag.weight.data
    bags = fasttext.bags(normalized)
    sizes = np.array([len(bag) for bag in bags], dtype=np.intp)
    filled = sizes.nonzero()[0]                      # empty bags stay zero
    sizes = sizes[filled]
    rows = weight[np.fromiter(chain.from_iterable(bags), dtype=np.intp)]
    sums = np.add.reduceat(rows, sizes.cumsum() - sizes, axis=0)
    out = np.zeros((len(bags), weight.shape[1]), dtype=weight.dtype)
    out[filled] = sums / sizes.astype(weight.dtype)[:, None]
    return out
