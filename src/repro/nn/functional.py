"""Functional ops built on the autograd tensor: conv1d, pooling, softmax.

The 1-D convolutions implement the paper's syntactic CNN tower.  Its first
layer reads one-hot mention matrices, which :func:`conv1d_codes` takes in
index form — ``(batch, length)`` alphabet positions — and convolves as a
gather of kernel columns (:func:`conv3_gather`, the same kernel the
inference forward runs).  The deeper layers take ``(batch, channels,
length)`` activations through :func:`conv1d`, an im2col transform whose
forward and weight gradient are one matmul each.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "conv1d",
    "conv1d_codes",
    "conv3_gather",
    "dropout",
    "global_max_pool1d",
    "log_softmax",
    "max_pool1d",
    "softmax",
]


def _im2col_1d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Unfold ``(N, C, L)`` into ``(N, out_len, C * kernel)`` patches."""
    n, c, length = x.shape
    out_len = (length - kernel) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)
    # windows: (N, C, L - k + 1, k) -> stride & reorder -> (N, out_len, C, k)
    windows = windows[:, :, ::stride, :][:, :, :out_len, :]
    return windows.transpose(0, 2, 1, 3).reshape(n, out_len, c * kernel)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, length)``.
    weight:
        Kernel of shape ``(out_channels, in_channels, kernel_size)``.
    bias:
        Optional per-output-channel bias of shape ``(out_channels,)``.
    """
    if x.ndim != 3:
        raise ValueError(f"conv1d expects (N, C, L) input, got shape {x.shape}")
    if weight.ndim != 3:
        raise ValueError(f"conv1d expects (Co, Ci, K) weight, got {weight.shape}")
    n, c_in, length = x.shape
    c_out, c_in_w, kernel = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    if length + 2 * padding < kernel:
        raise ValueError(
            f"input length {length} (+{2 * padding} pad) shorter than kernel {kernel}"
        )

    x_data = x.data
    if padding:
        x_data = np.pad(x_data, ((0, 0), (0, 0), (padding, padding)))
    cols = _im2col_1d(x_data, kernel, stride)          # (N, out_len, C*K)
    out_len = cols.shape[1]
    cols = cols.reshape(n * out_len, c_in * kernel)
    w2d = weight.data.reshape(c_out, c_in * kernel)    # (Co, C*K)
    out = (cols @ w2d.T).reshape(n, out_len, c_out)    # one GEMM
    out = out.transpose(0, 2, 1)                       # (N, Co, out_len)
    if bias is not None:
        out = out + bias.data[None, :, None]

    def backward(grad: np.ndarray):
        # grad: (N, Co, out_len) -> rows of (N * out_len, Co)
        grad_out = grad.transpose(0, 2, 1).reshape(n * out_len, c_out)
        grad_weight = (grad_out.T @ cols).reshape(weight.data.shape)
        grad_cols = (grad_out @ w2d).reshape(n, out_len, c_in, kernel)
        grad_x_padded = np.zeros(
            (n, c_in, length + 2 * padding), dtype=grad.dtype
        )
        # Fold the column gradients back with one strided slice-add per
        # kernel offset: targets within an offset are `stride` apart, so
        # each += is overlap-free, and the loop runs `kernel` times
        # instead of `out_len` times.
        for k_off in range(kernel):
            end = k_off + (out_len - 1) * stride + 1
            grad_x_padded[:, :, k_off:end:stride] += grad_cols[
                :, :, :, k_off
            ].transpose(0, 2, 1)
        grad_x = (
            grad_x_padded[:, :, padding : padding + length]
            if padding
            else grad_x_padded
        )
        grads: list[np.ndarray | None] = [grad_x, grad_weight]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2)))
        return tuple(grads)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return x._make(out, parents, backward)


def conv3_gather(codes: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Kernel-3, padding-1 conv of one-hot columns, channels-last, no bias.

    ``codes`` is ``(N, L)``: the row that is 1 in each column, or ``|A|``
    for an all-zero column (:meth:`OneHotEncoder.encode_codes`).  A conv
    over one-hot columns picks kernel columns, so with ``Tk = W[:, :, k].T``
    and a zero row appended for the pad code,
    ``out[:, l] = T0[c[l-1]] + T1[c[l]] + T2[c[l+1]]`` — three gathers,
    ``(N, L, Co)``, and the dense ``(N, |A|, L)`` tensor is never built.
    """
    out_channels, alphabet, _ = weight.shape
    taps = np.zeros((3, alphabet + 1, out_channels), dtype=weight.dtype)
    taps[:, :-1] = weight.transpose(2, 1, 0)         # row |A| stays 0: the pad
    x = taps[1][codes]                               # (N, L, Co)
    x[:, 1:] += taps[0][codes[:, :-1]]
    x[:, :-1] += taps[2][codes[:, 1:]]
    return x


def conv1d_codes(
    codes: np.ndarray, weight: Tensor, bias: Tensor | None = None
) -> Tensor:
    """``conv1d(one_hot(codes), weight, bias, padding=1)`` for a 3-wide kernel.

    The forward is :func:`conv3_gather`; the input is a constant, so the
    backward only scatters the output gradient into the three taps it
    gathered from — per output channel, one ``bincount`` over flattened
    ``(tap, code)`` ids.  Returns ``(N, Co, L)`` like
    :func:`conv1d` (a transposed view of channels-last data).
    """
    if codes.ndim != 2:
        raise ValueError(f"conv1d_codes expects (N, L) codes, got shape {codes.shape}")
    if weight.ndim != 3 or weight.shape[2] != 3:
        raise ValueError(f"conv1d_codes expects a (Co, |A|, 3) weight, got {weight.shape}")
    out_channels, alphabet, _ = weight.shape
    n, length = codes.shape
    out = conv3_gather(codes, weight.data)
    if bias is not None:
        out += bias.data

    def backward(grad: np.ndarray):
        # Output column l reads input column l - 1 + k through tap k: with
        # the codes padded by one pad code each side, padded column l + k.
        padded = np.full((n, length + 2), alphabet, dtype=np.intp)
        padded[:, 1:-1] = codes
        ids = np.stack([padded[:, k : k + length] for k in range(3)])
        ids += (np.arange(3, dtype=np.intp) * (alphabet + 1))[:, None, None]
        ids = ids.ravel()                              # (tap, code) per (k, n, l)
        sums = np.empty((out_channels, 3 * (alphabet + 1)), dtype=weight.data.dtype)
        for channel in range(out_channels):
            taken = np.broadcast_to(grad[:, channel], (3, n, length)).ravel()
            sums[channel] = np.bincount(ids, weights=taken, minlength=sums.shape[1])
        grad_weight = sums.reshape(out_channels, 3, alphabet + 1)[:, :, :alphabet]
        grad_weight = grad_weight.transpose(0, 2, 1)   # (Co, |A|, 3)
        if bias is None:
            return (grad_weight,)
        return grad_weight, grad.sum(axis=(0, 2))

    parents = (weight,) if bias is None else (weight, bias)
    return weight._make(out.transpose(0, 2, 1), parents, backward)


def max_pool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over the time axis of a ``(N, C, L)`` tensor."""
    if x.ndim != 3:
        raise ValueError(f"max_pool1d expects (N, C, L) input, got {x.shape}")
    stride = stride or kernel
    n, c, length = x.shape
    out_len = (length - kernel) // stride + 1
    if out_len <= 0:
        raise ValueError(f"kernel {kernel} larger than input length {length}")

    windows = np.lib.stride_tricks.sliding_window_view(x.data, kernel, axis=2)
    windows = windows[:, :, ::stride, :][:, :, :out_len, :]  # (N, C, out, K)
    out = windows.max(axis=3)
    argmax = windows.argmax(axis=3)  # (N, C, out)

    def backward(grad: np.ndarray):
        grad_x = np.zeros((n, c, length), dtype=grad.dtype)
        if stride == kernel:
            # Windows do not overlap: each input takes at most one gradient,
            # so the fold is a plain scatter into the window blocks.
            blocks = grad_x[:, :, : out_len * kernel].reshape(n, c, out_len, kernel)
            np.put_along_axis(blocks, argmax[..., None], grad[..., None], axis=3)
            return (grad_x,)
        n_idx, c_idx, o_idx = np.indices((n, c, out_len))
        positions = o_idx * stride + argmax
        np.add.at(grad_x, (n_idx, c_idx, positions), grad)
        return (grad_x,)

    return x._make(out, (x,), backward)


def global_max_pool1d(x: Tensor) -> Tensor:
    """Max over the entire time axis: ``(N, C, L)`` -> ``(N, C)``."""
    return x.max(axis=2)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(
    x: Tensor, p: float, training: bool, rng: np.random.Generator
) -> Tensor:
    """Inverted dropout: identity in eval mode or when ``p == 0``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return x._make(x.data * mask, (x,), backward)
