"""Neural-network layers over the autograd tensor.

:class:`Module` supplies parameter discovery, train/eval modes, and
state-dict (de)serialisation — the subset of ``torch.nn.Module`` the
EmbLookup model relies on.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import DEFAULT_DTYPE, Tensor
from repro.utils.rng import as_rng

__all__ = [
    "Conv1d",
    "Dropout",
    "EmbeddingBag",
    "LayerNorm",
    "Linear",
    "Module",
    "ReLU",
    "Sequential",
    "Tanh",
]

class Module:
    """Base class: tracks parameters and sub-modules by attribute name."""

    def __init__(self) -> None:
        self._parameters: OrderedDict[str, Tensor] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()
        self.training: bool = True

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ---------------------------------------------------------------

    def parameters(self) -> Iterator[Tensor]:
        """All trainable tensors in this module and its children."""
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """(dotted-path, tensor) pairs for this module and children."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        """Enable training mode (dropout active) recursively."""
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        """Enable inference mode (dropout inert) recursively."""
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    # -- state dict ----------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter names to array copies."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data[...] = value

    # -- call protocol ---------------------------------------------------------------

    def forward(self, *args: Tensor) -> Tensor:
        """Compute the module output (subclass hook)."""
        raise NotImplementedError

    def __call__(self, *args: Tensor) -> Tensor:
        return self.forward(*args)

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.data.size for p in self.parameters())


class Linear(Module):
    """Affine map ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: int | np.random.Generator | None = None,
    ):
        super().__init__()
        generator = as_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.kaiming_uniform((out_features, in_features), generator),
            requires_grad=True,
        )
        self.bias = (
            Tensor(init.zeros((out_features,)), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map to ``(N, in_features)`` input."""
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class Conv1d(Module):
    """1-D convolution over ``(N, C, L)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: int | np.random.Generator | None = None,
    ):
        super().__init__()
        generator = as_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size), generator
            ),
            requires_grad=True,
        )
        self.bias = (
            Tensor(init.zeros((out_channels,)), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        """Convolve ``(N, C, L)`` input."""
        return F.conv1d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )

    def __repr__(self) -> str:
        return (
            f"Conv1d({self.in_channels} -> {self.out_channels}, "
            f"k={self.kernel_size}, pad={self.padding})"
        )


class ReLU(Module):
    """Elementwise rectifier."""

    def forward(self, x: Tensor) -> Tensor:
        """max(x, 0)."""
        return x.relu()


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        """tanh(x)."""
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; inert in eval mode."""

    def __init__(self, p: float = 0.1, rng: int | np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = as_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        """Randomly zero activations (training mode only)."""
        return F.dropout(x, self.p, self.training, self.rng)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Tensor(np.ones(features, dtype=DEFAULT_DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(features, dtype=DEFAULT_DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """Normalise the last dimension, then scale and shift."""
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalised = centered / (variance + self.eps).sqrt()
        return normalised * self.gamma + self.beta


class Sequential(Module):
    """Runs child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._ordered: list[Module] = []
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
            self._ordered.append(module)

    def forward(self, x: Tensor) -> Tensor:
        """Pipe ``x`` through the child modules in order."""
        for module in self._ordered:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)


class EmbeddingBag(Module):
    """Mean-pooled embedding lookup over variable-length index bags.

    This is the subword aggregation layer of the fastText tower: a mention's
    character n-grams hash to rows of the embedding table and the mention
    embedding is their mean.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: int | np.random.Generator | None = None,
    ):
        super().__init__()
        generator = as_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        scale = 1.0 / np.sqrt(embedding_dim)
        self.weight = Tensor(
            generator.uniform(
                -scale, scale, size=(num_embeddings, embedding_dim)
            ).astype(DEFAULT_DTYPE, copy=False),
            requires_grad=True,
        )

    def forward_bags(self, bags: Sequence[Sequence[int]]) -> Tensor:
        """Embed a batch of index bags into a ``(batch, dim)`` tensor.

        Forward and backward are one row scatter each over every
        ``(bag, id)`` pair (:func:`_scatter_rows`), so the floats are those
        of ``weight[bag].mean(axis=0)`` and of one ``np.add.at`` per bag.
        """
        sizes = np.fromiter(map(len, bags), dtype=np.intp, count=len(bags))
        ids = np.fromiter(
            chain.from_iterable(bags), dtype=np.intp, count=int(sizes.sum())
        )
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(f"bag indices out of range [0, {self.num_embeddings})")
        filled = sizes.nonzero()[0]                  # empty bags stay zero
        counts = sizes[filled]
        weight = self.weight
        out = np.zeros((len(bags), self.embedding_dim), dtype=weight.data.dtype)
        bag_of = np.repeat(np.arange(len(bags), dtype=np.intp), sizes)
        _scatter_rows(out, bag_of, weight.data[ids])
        out[filled] /= counts.astype(out.dtype)[:, None]

        def backward(grad: np.ndarray):
            shares = grad[filled] / counts.astype(grad.dtype)[:, None]
            grad_weight = np.zeros_like(weight.data)
            _scatter_rows(grad_weight, ids, np.repeat(shares, counts, axis=0))
            return (grad_weight,)

        return weight._make(out, (weight,), backward)

    def forward(self, *args: Tensor) -> Tensor:  # pragma: no cover - use forward_bags
        raise TypeError("EmbeddingBag requires forward_bags(bags)")


def _scatter_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, rows, values)``: the same floats, in rounds.

    Each target row takes its terms in the order they come, so round ``r``
    adds every row's ``r``-th term — the rows of one round are distinct, so
    a fancy-indexed add does it.  A row taking ``k`` terms is done after
    ``k`` rounds, and there are as many rounds as the busiest row has
    terms.  ``np.add.at`` itself walks the terms one element at a time, and
    ~10x slower still when ``values`` is float64 over a float32 table (the
    fastText pre-training regresses onto float64 targets).
    """
    if not rows.size:
        return
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = first.nonzero()[0]
    rank = np.arange(rows.size, dtype=np.intp) - starts[first.cumsum() - 1]
    by_rank = order[np.argsort(rank, kind="stable")]
    bounds = np.bincount(rank).cumsum()
    for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
        terms = by_rank[lo:hi]
        hit = rows[terms]
        target[hit] = target[hit] + values[terms]
