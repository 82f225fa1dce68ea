"""Reverse-mode autograd over NumPy arrays.

A :class:`Tensor` wraps a float32 ``numpy`` array and remembers how it was
produced; :meth:`Tensor.backward` walks the graph in reverse topological
order accumulating gradients.  The elementwise/linear-algebra primitives
live here as operators; convolution, pooling, embedding and the fused
losses live in :mod:`repro.ndl.functional`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (evaluation mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    """Whether graph construction is currently enabled."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes, then sum over broadcast (size-1) axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable array.

    Parameters
    ----------
    data:
        Anything convertible to a float32 ``numpy`` array.
    requires_grad:
        Whether to accumulate gradients into :attr:`grad` during backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_grad_hooks")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._grad_hooks: list[Callable[["Tensor", np.ndarray], None]] | None = None

    # -- graph construction --------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a graph node; drops the tape when grad is disabled."""
        parents = tuple(parents)
        needs_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # The first contribution is kept by reference and later ones are
        # summed out of place: a ``.grad`` buffer is never written through,
        # so the views and shared arrays that backward closures hand in
        # (both operands of ``a + b`` get the same one) need no copy.
        grad = np.asarray(grad, dtype=np.float32)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad
        if self._grad_hooks:
            for hook in self._grad_hooks:
                hook(self, self.grad)

    def register_grad_hook(
        self, hook: Callable[["Tensor", np.ndarray], None]
    ) -> Callable[[], None]:
        """Call ``hook(tensor, grad)`` on every backward accumulation.

        A parameter's gradient is *final* at its last accumulation of a
        backward pass, so hook consumers interested in gradient-ready
        events (e.g. an overlapping trainer) should keep the latest
        firing per tensor.  Returns a zero-argument remover.
        """
        if self._grad_hooks is None:
            self._grad_hooks = []
        self._grad_hooks.append(hook)

        def remove() -> None:
            if self._grad_hooks and hook in self._grad_hooks:
                self._grad_hooks.remove(hook)

        return remove

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor (default seed: ones).

        Delegates to :func:`backward_pass`; gradients accumulate into the
        ``.grad`` buffer of every tensor that requires grad.
        """
        backward_pass(self, seed=grad)

    # -- representation -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    def item(self) -> float:
        """The single element of a scalar tensor, as a float."""
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """The underlying NumPy array (no copy)."""
        return self.data

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, _unbroadcast(grad, self.data.shape))
            _bw_add(other, _unbroadcast(grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            _bw_add(self, -grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, _unbroadcast(grad * other.data, self.data.shape))
            _bw_add(other, _unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, _unbroadcast(grad / other.data, self.data.shape))
            _bw_add(
                other,
                _unbroadcast(
                    -grad * self.data / (other.data**2), other.data.shape
                ),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # -- elementwise functions ------------------------------------------------

    def exp(self) -> "Tensor":
        """Elementwise e^x."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural log."""
        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic function (clipped for stability)."""
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            _bw_add(self, np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all axes when None)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; gradient splits equally among ties."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = self.data == expanded
            # Split gradient equally among ties, matching NumPy semantics.
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            _bw_add(self, g * mask / counts)

        return Tensor._make(out_data, (self,), backward)

    # -- shape manipulation ------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (same element count)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (reversed order when none given)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            _bw_add(self, grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        """Transpose with reversed axes."""
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            _bw_add(self, full)

        return Tensor._make(out_data, (self,), backward)

    # -- linear algebra ------------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product (supports batched operands)."""
        other = _as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 2 and b.ndim == 2:
                _bw_add(self, grad @ b.T)
                _bw_add(other, a.T @ grad)
            else:
                # Batched matmul: contract over the last two axes and
                # un-broadcast leading ones.
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.swapaxes(a, -1, -2) @ grad
                _bw_add(self, _unbroadcast(grad_a, a.shape))
                _bw_add(other, _unbroadcast(grad_b, b.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float32))


def _bw_add(tensor: Tensor, grad: np.ndarray) -> None:
    """Accumulate a backward contribution into ``tensor``.

    Interior nodes buffer into ``grad`` too and are re-dispatched by the
    engine; see :func:`backward_pass`.
    """
    if tensor.requires_grad:
        tensor._accumulate(grad)


def backward_pass(root: Tensor, seed: np.ndarray | None = None) -> None:
    """Run reverse-mode accumulation from ``root``.

    This is the engine actually used (``Tensor.backward`` delegates here):
    gradients are accumulated into every node's ``.grad`` buffer, interior
    nodes dispatch their buffered gradient to parents exactly once, in
    reverse topological order.
    """
    if not root.requires_grad:
        raise RuntimeError("backward on a tensor that does not require grad")
    if seed is None:
        if root.data.size != 1:
            raise RuntimeError("a seed gradient is required for non-scalars")
        seed = np.ones_like(root.data)
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    # Copied: a leaf root would otherwise keep the caller's seed as its grad.
    root._accumulate(np.array(seed, dtype=np.float32))
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        node._backward_fn(node.grad)
        # Interior activations are not reused after dispatch; free the
        # buffer so memory stays proportional to parameters.
        node.grad = None
