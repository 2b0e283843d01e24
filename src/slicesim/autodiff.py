"""Reverse-mode automatic differentiation on numpy float64 arrays.

Just the operator set the policy/value networks are built from: matmul,
broadcast add/sub/mul, tanh, relu, exp, log, sum, indexing,
concatenation, and a max-shifted logsumexp. A Tensor records its parents
and a backward closure; backward() walks the tape in reverse topological
order.

The package itself no longer trains through this tape (the networks
carry closed-form gradients); the tests keep it as an independent
oracle for those gradients.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over the axes numpy broadcast to reach its shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False, _prev=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _prev)
        self._backward = None
        self._prev = _prev

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        out = Tensor(self.data + other.data, _prev=(self, other))

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))
        out._backward = backward
        return out

    def __mul__(self, other):
        other = self._lift(other)
        out = Tensor(self.data * other.data, _prev=(self, other))

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))
        out._backward = backward
        return out

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    __radd__ = __add__
    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._lift(other)
        out = Tensor(self.data @ other.data, _prev=(self, other))
        a, b = self.data, other.data

        def backward():
            g = out.grad
            if self.requires_grad:
                if a.ndim == 1 and b.ndim == 1:   # (n,) @ (n,) -> ()
                    self._accumulate(g * b)
                elif a.ndim == 1:                 # (n,) @ (n,k) -> (k,)
                    self._accumulate(b @ g)
                elif b.ndim == 1:                 # (m,n) @ (n,) -> (m,)
                    self._accumulate(np.outer(g, b))
                else:                             # (m,n) @ (n,k) -> (m,k)
                    self._accumulate(g @ b.T)
            if other.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    other._accumulate(g * a)
                elif b.ndim == 1:
                    other._accumulate(a.T @ g)
                elif a.ndim == 1:
                    other._accumulate(np.outer(a, g))
                else:
                    other._accumulate(a.T @ g)
        out._backward = backward
        return out

    def __getitem__(self, idx):
        out = Tensor(self.data[idx], _prev=(self,))

        def backward():
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, idx, out.grad)
                self._accumulate(g)
        out._backward = backward
        return out

    # -- elementwise functions ---------------------------------------------

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor(y, _prev=(self,))

        def backward():
            if self.requires_grad:
                self._accumulate((1.0 - y * y) * out.grad)
        out._backward = backward
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), _prev=(self,))

        def backward():
            if self.requires_grad:
                self._accumulate((self.data > 0.0) * out.grad)
        out._backward = backward
        return out

    def exp(self):
        y = np.exp(self.data)
        out = Tensor(y, _prev=(self,))

        def backward():
            if self.requires_grad:
                self._accumulate(y * out.grad)
        out._backward = backward
        return out

    def log(self):
        out = Tensor(np.log(self.data), _prev=(self,))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad / self.data)
        out._backward = backward
        return out

    def square(self):
        return self * self

    def sum(self):
        out = Tensor(self.data.sum(), _prev=(self,))

        def backward():
            if self.requires_grad:
                self._accumulate(np.full_like(self.data, float(out.grad)))
        out._backward = backward
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), _prev=(self,))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))
        out._backward = backward
        return out

    # -- graph traversal -----------------------------------------------------

    def backward(self) -> None:
        """Seed d(self)/d(self) = 1 and propagate to every parameter."""
        if self.data.shape != ():
            raise ValueError("backward() starts from a scalar")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward()

    def item(self) -> float:
        return float(self.data)


def concat(parts: list[Tensor]) -> Tensor:
    """Join 1-D tensors end to end."""
    out = Tensor(np.concatenate([p.data for p in parts]), _prev=tuple(parts))
    sizes = [p.data.shape[0] for p in parts]

    def backward():
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                p._accumulate(out.grad[offset:offset + size])
            offset += size
    out._backward = backward
    return out


def logsumexp(z: Tensor) -> Tensor:
    """log sum exp over a 1-D tensor, shifted by the (detached) max."""
    m = float(np.max(z.data))
    return (z - m).exp().sum().log() + m


def log_softmax(z: Tensor) -> Tensor:
    return z - logsumexp(z)

