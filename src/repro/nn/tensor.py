"""Reverse-mode automatic differentiation over numpy arrays.

This module is the neural-network substrate of the reproduction: the paper's
model is implemented in PyTorch, which is unavailable here, so we provide a
small tape-based autodiff engine with the operations needed by LSTM cells,
the SAM attention reader and the NeuTraj losses.

Design:

* A :class:`Tensor` wraps a ``numpy.ndarray`` plus an optional gradient and a
  closure that propagates gradients to its parents.
* Calling :meth:`Tensor.backward` on a scalar performs a topological sweep of
  the recorded tape and frees each interior node as the sweep passes it, so
  a tape is differentiated once and only leaves keep their gradients.
* Broadcasting follows numpy semantics; gradients are summed back over the
  broadcast axes (see :func:`_unbroadcast`).

All operations are validated against numerical differentiation in
``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape construction.

    Inside the context every op result has ``requires_grad=False`` and no
    backward closure. The flag it saves and restores is **process-global**
    and unsynchronised — two threads whose contexts overlap can leave it
    off for good — so it is for the training thread and for tests only.
    Inference (``embed`` / ``extend_prefix``, run from many threads by the
    serving and streaming tiers) is tape-free and never enters it.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable one-``exp`` logistic on a plain array; the tape
    ops, the memory write gate and the inference kernel all call this one."""
    e = np.exp(-np.abs(x))
    pos = 1.0 / (1.0 + e)
    # ``pos`` where x >= 0 (the factor is 1.0 there, as e <= 1), ``e * pos``
    # elsewhere: the two-sided ``np.where`` bit for bit, without its select.
    np.maximum(e, x >= 0, out=e)
    e *= pos
    return e


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    Numpy broadcasting may have expanded some axes of an operand; the gradient
    of that operand is the sum of the upstream gradient over the expanded axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _consumed(grad: Optional[np.ndarray]) -> None:
    """The ``_backward`` of a node :meth:`Tensor.backward` has released."""
    raise RuntimeError(
        "backward() through a graph an earlier backward() already consumed: "
        "each interior node's closure, saved activations and gradient are "
        "released once used; rebuild the forward pass to differentiate again")


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy array with an autodiff tape.

    Parameters
    ----------
    data:
        Array contents; anything ``numpy.asarray`` accepts.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # make numpy defer to our __r*__ operators

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data, dtype=np.float64 if not isinstance(data, np.ndarray) else None)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------ infra

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            # The buffer is always own-allocated (copy/zeros above), so the
            # in-place add is safe and saves one temporary per fan-in.
            self.grad += grad

    def _accumulate_into(self, key, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into a sub-slice of this tensor's gradient.

        Used where a node's gradients cover disjoint regions of a parent
        (:func:`unstack`, and the gate blocks of
        :func:`~repro.nn.rnn.tape_step`): a lazily allocated buffer plus
        an in-place slice add avoids the full-size zeros + ``np.add.at``
        scatter a ``__getitem__`` node would pay.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[key] += grad

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = (_GRAD_ENABLED
                             and any(p.requires_grad for p in parents))
        out._parents = (tuple(p for p in parents if p.requires_grad)
                        if out.requires_grad else ())
        out._backward = backward if out.requires_grad else None
        return out

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        The sweep consumes the tape: as soon as an interior node has
        propagated its gradient, its closure (with the activations the
        closure saved), its parent links and its ``grad`` are released,
        so the step's peak memory is the tape plus one frontier of
        gradients rather than the tape plus every gradient. Gradients
        are retained on leaves and on this tensor only; a second sweep
        through any consumed node raises ``RuntimeError`` — rebuild the
        forward pass to differentiate again.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if self._backward is _consumed:
            _consumed(grad)
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient "
                                   "requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (recursion would overflow on
        # long BPTT chains).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while order:
            node = order.pop()  # the sweep's own reference goes too
            if node._backward is None:
                continue  # a leaf: its gradient is the result
            if node.grad is not None:
                node._backward(node.grad)
            node._backward = _consumed
            node._parents = ()
            if node is not self:
                node.grad = None

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = np.matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            # Lift to >=2-D following np.matmul semantics, do the math in
            # the lifted space, then reduce back to the original shapes.
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            g2 = grad
            if a.ndim == 1:
                g2 = np.expand_dims(g2, axis=-2)
            if b.ndim == 1:
                g2 = np.expand_dims(g2, axis=-1)
            if self.requires_grad:
                ga = np.matmul(g2, np.swapaxes(b2, -1, -2))
                self._accumulate(_unbroadcast(ga, a2.shape).reshape(a.shape))
            if other.requires_grad:
                gb = np.matmul(np.swapaxes(a2, -1, -2), g2)
                other._accumulate(_unbroadcast(gb, b2.shape).reshape(b.shape))

        return Tensor._make(data, (self, other), backward)

    # ----------------------------------------------------------- element-wise

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self, eps: float = 0.0) -> "Tensor":
        """Element-wise square root; ``eps`` guards the gradient at zero."""
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / (data + eps))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = logistic(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        data = e / e.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                dot = (grad * data).sum(axis=axis, keepdims=True)
                self._accumulate(data * (grad - dot))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------- reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ----------------------------------------------------------- shape juggle

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows along the first axis (gradient scatters back)."""
        # Gather indices keep their caller dtype (int arrays or bool
        # masks both index correctly).  # repro: disable=dtype-discipline
        indices = np.asarray(indices)
        data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, indices, grad)
                self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ----------------------------------------------------------------- extras

    def clip_min(self, minimum: float) -> "Tensor":
        """Clamp below; gradient passes only where data > minimum."""
        data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > minimum))

        return Tensor._make(data, (self,), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient unstacking."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(slab)

    return Tensor._make(data, tensors, backward)


def unstack(tensor: Tensor, axis: int = 0) -> list:
    """Split ``tensor`` into views along ``axis`` (gradients fill slots).

    The inverse of :func:`stack`: returns ``tensor.shape[axis]`` tensors,
    each a (zero-copy) slice whose backward accumulates into its slot of
    the parent's gradient buffer. Used to slice per-timestep projections
    out of a hoisted whole-sequence matmul without per-step ``np.add.at``
    scatters.
    """
    t = as_tensor(tensor)
    prefix = (slice(None),) * (axis % max(t.ndim, 1))

    def make_backward(key):
        def backward(grad: np.ndarray) -> None:
            if t.requires_grad:
                t._accumulate_into(key, grad)
        return backward

    outs = []
    for idx in range(t.shape[axis]):
        key = prefix + (idx,)
        outs.append(Tensor._make(t.data[key], (t,), make_backward(key)))
    return outs


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select ``a`` where ``condition`` else ``b``; condition is constant."""
    condition = np.asarray(condition, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~condition, b.shape))

    return Tensor._make(data, (a, b), backward)


def numerical_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray,
                       eps: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of scalar-valued ``fn`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        old = flat_x[i]
        flat_x[i] = old + eps
        fp = fn(x)
        flat_x[i] = old - eps
        fm = fn(x)
        flat_x[i] = old
        flat_g[i] = (fp - fm) / (2 * eps)
    return grad


def gradient_check(build: Callable[[Tensor], Tensor], x: np.ndarray,
                   eps: float = 1e-6, tol: float = 1e-4) -> bool:
    """Verify that autodiff gradients of ``build`` match numerical ones.

    ``build`` takes a Tensor and returns a scalar Tensor. Returns True when
    the maximum absolute deviation is within ``tol``; raises AssertionError
    otherwise with diagnostics.
    """
    x = np.asarray(x, dtype=np.float64)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    analytic = t.grad

    def evaluate(arr: np.ndarray) -> float:
        return build(Tensor(arr.copy())).item()

    numeric = numerical_gradient(evaluate, x, eps=eps)
    err = np.max(np.abs(analytic - numeric))
    scale = max(1.0, np.max(np.abs(numeric)))
    if err / scale > tol:
        raise AssertionError(
            f"gradient check failed: max abs err {err:.3e} (rel {err / scale:.3e})")
    return True
