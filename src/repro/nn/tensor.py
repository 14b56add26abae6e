"""Reverse-mode autograd tensor.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations that
produced it.  Calling :meth:`Tensor.backward` on a scalar result walks the
recorded graph in reverse topological order, accumulating gradients into
every tensor created with ``requires_grad=True``.

The op set is deliberately small — exactly what the EmbLookup model and its
baselines need — but each op supports full numpy broadcasting, with
gradients "un-broadcast" back to the operand shapes.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

__all__ = ["DEFAULT_DTYPE", "Tensor", "concatenate", "no_grad", "stack"]

#: Default payload dtype.  The paper's memory model (64-d vectors = 256 B,
#: PQ-compressed to 8 B) assumes float32 end-to-end; float64 remains an
#: explicit opt-in (numerical gradient checking passes float64 arrays in).
DEFAULT_DTYPE = np.float32

class _GradMode(threading.local):
    """Per-thread graph-recording switch.

    Thread-local because ``no_grad`` saves and restores it: with one
    process-wide flag, two serving threads embedding queries at once
    could interleave their save/restore and leave recording off for
    whoever trains next (or on inside someone's inference block).
    """

    enabled = True


_grad = _GradMode()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph recording (inference mode) on the
    calling thread."""
    previous = _grad.enabled
    _grad.enabled = False
    try:
        yield
    finally:
        _grad.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: Any) -> np.ndarray:
    if isinstance(value, (np.ndarray, np.generic)):
        array = np.asarray(value)  # repro: noqa[REP101] -- dtype-preserving path
        if array.dtype != np.float64 and array.dtype != np.float32:  # repro: noqa[REP102]
            return array.astype(DEFAULT_DTYPE)
        return array
    return np.asarray(value, dtype=DEFAULT_DTYPE)


class Tensor:
    """A numpy array with an autograd tape entry.

    Parameters
    ----------
    data:
        Array-like payload; coerced to float32/float64 ndarray.
    requires_grad:
        When true, gradients are accumulated into ``self.grad`` on
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: Any,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        name: str | None = None,
    ):
        self.data: np.ndarray = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = _parents if _grad.enabled else ()
        self.name = name

    # -- basic introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """The scalar payload as a Python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Discard the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # -- graph construction -------------------------------------------------------

    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        When this tensor is not a scalar, ``grad`` (the upstream gradient,
        same shape) must be provided.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack_: list[tuple[Tensor, bool]] = [(self, False)]
        while stack_:
            node, processed = stack_.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack_.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack_.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad.
                node._accumulate(node_grad)
            if node._backward is not None:
                node._push_parent_grads(node_grad, grads)

    def _push_parent_grads(
        self, grad: np.ndarray, grads: dict[int, np.ndarray]
    ) -> None:
        assert self._backward is not None
        parent_grads = self._backward(grad)  # type: ignore[misc]
        for parent, pgrad in zip(self._parents, parent_grads):  # type: ignore[arg-type]
            if pgrad is None:
                continue
            if not parent.requires_grad and not parent._parents:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pgrad
            else:
                grads[key] = pgrad
            if parent._backward is None and parent.requires_grad:
                # Leaves accumulate immediately below in backward()'s loop;
                # nothing extra to do here.
                pass

    # -- arithmetic ops ------------------------------------------------------------

    def _as_operand(self, other: Any) -> "Tensor":
        """Wrap ``other`` as a Tensor; bare python scalars adopt this
        tensor's dtype so constants never promote a float32 graph."""
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def __add__(self, other: Any) -> "Tensor":
        other_t = self._as_operand(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(grad, other_t.data.shape),
            )

        return self._make(data, (self, other_t), backward)

    def __radd__(self, other: Any) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (-grad,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: Any) -> "Tensor":
        other_t = self._as_operand(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(-grad, other_t.data.shape),
            )

        return self._make(data, (self, other_t), backward)

    def __rsub__(self, other: Any) -> "Tensor":
        return self._as_operand(other).__sub__(self)

    def __mul__(self, other: Any) -> "Tensor":
        other_t = self._as_operand(other)
        data = self.data * other_t.data
        a, b = self.data, other_t.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return (
                _unbroadcast(grad * b, a.shape),
                _unbroadcast(grad * a, b.shape),
            )

        return self._make(data, (self, other_t), backward)

    def __rmul__(self, other: Any) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Any) -> "Tensor":
        other_t = self._as_operand(other)
        a, b = self.data, other_t.data
        data = a / b

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return (
                _unbroadcast(grad / b, a.shape),
                _unbroadcast(-grad * a / (b * b), b.shape),
            )

        return self._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: Any) -> "Tensor":
        return self._as_operand(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent
        base = self.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad * exponent * base ** (exponent - 1),)

        return self._make(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(other)
        a, b = self.data, other.data
        data = a @ b

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            if a.ndim == 2 and b.ndim == 2:
                return grad @ b.T, a.T @ grad
            # General batched case.
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            return (
                _unbroadcast(grad_a, a.shape),
                _unbroadcast(grad_b, b.shape),
            )

        return self._make(data, (self, other), backward)

    # -- elementwise nonlinearities -------------------------------------------------

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad * mask,)

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad * (1.0 - data * data),)

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic function."""
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad * data * (1.0 - data),)

        return self._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad * data,)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        data = np.log(self.data)
        source = self.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad / source,)

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad * 0.5 / np.maximum(data, 1e-12),)

        return self._make(data, (self,), backward)

    def clamp_min(self, minimum: float) -> "Tensor":
        """Elementwise max(x, minimum) (hinge nonlinearity)."""
        mask = self.data >= minimum
        data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad * mask,)

        return self._make(data, (self,), backward)

    # -- reductions ------------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (or everything when ``axis`` is None)."""
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % len(shape) for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, shape).copy(),)

        return self._make(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max over ``axis``; ties share gradient equally."""
        data = self.data.max(axis=axis, keepdims=keepdims)
        # Gradient flows only to the (first) argmax along the axis.
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = self.data == expanded
        # Break ties: normalise so total gradient is preserved.
        counts = mask.sum(axis=axis, keepdims=True)
        weights = mask / counts
        shape = self.data.shape

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            g = grad if keepdims else np.expand_dims(grad, axis)
            return (np.broadcast_to(g, shape) * weights,)

        return self._make(data, (self,), backward)

    # -- shape ops --------------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        """View with a new shape (same element count)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])  # type: ignore[assignment]
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad.reshape(original),)

        return self._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (reversed order when ``axes`` omitted)."""
        order = axes or tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(order)
        inverse = np.argsort(order)

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad.transpose(inverse),)

        return self._make(data, (self,), backward)

    def __getitem__(self, index: Any) -> "Tensor":
        data = self.data[index]
        shape = self.data.shape

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            full = np.zeros(shape, dtype=grad.dtype)
            if _is_basic(index):
                full[index] = grad       # a view: no element is picked twice
            else:
                np.add.at(full, index, grad)
            return (full,)

        return self._make(data, (self,), backward)


def _is_basic(index: Any) -> bool:
    """Whether ``index`` is basic indexing (ints and slices): it selects
    each element at most once."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(p, (int, slice)) or p is None or p is Ellipsis for p in parts)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    if not tensors:
        raise ValueError("concatenate needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> tuple[np.ndarray, ...]:
        slices = []
        for i in range(len(sizes)):
            idx: list[Any] = [slice(None)] * grad.ndim
            idx[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            slices.append(grad[tuple(idx)])
        return tuple(slices)

    requires = _grad.enabled and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors) if requires else ())
    if requires:
        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    if not tensors:
        raise ValueError("stack needs at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> tuple[np.ndarray, ...]:
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    requires = _grad.enabled and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors) if requires else ())
    if requires:
        out._backward = backward
    return out
