"""Minimal deep-learning framework (the reproduction's PyTorch substitute).

Implements exactly what EmbLookup's model needs — a reverse-mode autograd
tensor, 1-D convolution, linear layers, ReLU, max pooling, embedding bags,
triplet-margin loss, and the Adam/SGD optimisers — with numerical gradient
checking to pin correctness (see ``tests/nn``).
"""

from repro.nn.tensor import Tensor, concatenate, no_grad, stack
from repro.nn import functional
from repro.nn.layers import (
    Conv1d,
    Dropout,
    EmbeddingBag,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.loss import (
    cross_entropy_loss,
    mse_loss,
    triplet_margin_loss,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.serialization import load_state_dict, save_state_dict

__all__ = [
    "Adam",
    "Conv1d",
    "Dropout",
    "EmbeddingBag",
    "LayerNorm",
    "Linear",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Tanh",
    "Tensor",
    "concatenate",
    "cross_entropy_loss",
    "functional",
    "load_state_dict",
    "mse_loss",
    "no_grad",
    "save_state_dict",
    "stack",
    "triplet_margin_loss",
]
