"""Minimal reverse-mode automatic differentiation over numpy arrays.

Double precision throughout; just the handful of ops the fusion pipeline
needs: broadcast add/mul (a 0-d tensor scales), sigmoid, axis means, channel
concat/split, and a same-padded stride-1 2-d convolution.

`Tensor.backward` consumes the graph it runs through: each node it has passed
drops its parents and its backward closure, so reference counting frees the
intermediates as the gradients flow, and a second backward through the same
graph raises. `conv2d` keeps no padded copy of its input for backward; its
backward rebuilds the padded input from the input tensor's data.
"""
from __future__ import annotations

import numpy as np


def _consumed(g):
    raise ValueError("graph already consumed by backward()")


class Tensor:
    """A numpy array with an optional gradient buffer and a backward closure."""

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise FloatingPointError("non-finite tensor data")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into the .grad of every requires_grad
        tensor below this scalar. The graph is consumed on the way: once a
        node has passed its gradient to its parents (or none reached it), it
        drops them and its closure, so intermediates are freed as backward
        goes and a second backward() through them raises ValueError, before
        any .grad is touched. Leaves (tensors made without a backward
        closure) are left as they are."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        # depth-first post-order with an explicit stack: a recursive closure
        # would refer to itself and keep the whole graph in a reference cycle.
        # A consumed node raises here, before any gradient is added anywhere.
        topo: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                if t._backward is _consumed:
                    _consumed(None)
                stack.pop()
                topo.append(t)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            t = topo.pop()
            g = grads.pop(id(t), None)
            parents, backward = t._parents, t._backward
            if backward is not None:
                # consume t: its parents and closure live on only in these locals
                t._parents, t._backward = (), _consumed
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient encountered")
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g
            if backward is None:
                continue
            for p, pg in zip(parents, backward(g)):
                if pg is None:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    return Tensor(out_data, _parents=(a, b),
                  _backward=lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    return Tensor(out_data, _parents=(a, b),
                  _backward=lambda g: (_unbroadcast(g * b.data, a.shape),
                                       _unbroadcast(g * a.data, b.shape)))


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor(s, _parents=(x,), _backward=lambda g: (g * s * (1.0 - s),))


def tsum(x: Tensor) -> Tensor:
    return Tensor(x.data.sum(), _parents=(x,),
                  _backward=lambda g: (np.broadcast_to(g, x.shape).copy(),))


def mean(x: Tensor, axis) -> Tensor:
    """Mean over one axis or a tuple of axes, which are kept with size 1."""
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = int(np.prod([x.shape[a] for a in axes]))
    return Tensor(x.data.mean(axis=axes, keepdims=True), _parents=(x,),
                  _backward=lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    ends = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), _parents=tuple(tensors),
                  _backward=lambda g: tuple(np.split(g, ends, axis=axis)))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return Tensor(x.data[idx], _parents=(x,), _backward=backward)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Same-padded stride-1 convolution; x (Cin, H, W), weight (Cout, Cin, k, k)."""
    cout, cin, k, k2 = weight.shape
    if k != k2 or k % 2 == 0:
        raise ValueError("kernel must be square with odd size")
    if x.shape[0] != cin:
        raise ValueError(f"input has {x.shape[0]} channels, kernel expects {cin}")
    _, h, w = x.shape
    pad = k // 2
    # Zero-padded rows of width wp, one extra zero row, flattened: output
    # (y, x) reads tap (ki, kj) at xf[:, (y + ki) * wp + x + kj], so each tap
    # is the contiguous slice at offset ki * wp + kj. The columns x >= w of
    # each output row wrap into the next row and are cropped.
    wp = w + 2 * pad
    n = h * wp
    taps = [(ki, kj, ki * wp + kj) for ki in range(k) for kj in range(k)]

    def padded():
        xp = np.zeros((cin, h + 2 * pad + 1, wp))
        xp[:, pad:pad + h, pad:pad + w] = x.data
        return xp.reshape(cin, -1)

    xf = padded()
    acc = np.zeros((cout, n))
    # a one-channel tap is an outer product: the broadcast multiply forms the
    # same single products as the matmul, at a fraction of its per-call cost
    product = np.multiply if cin == 1 else np.matmul
    for ki, kj, o in taps:
        acc += product(weight.data[:, :, ki, kj], xf[:, o:o + n])
    out_data = acc.reshape(cout, h, wp)[:, :, :w] + bias.data[:, None, None]

    # the padded copy is not kept for backward, which pads x.data again
    def backward(g):
        xf = padded()
        gp = np.zeros((cout, h, wp))
        gp[:, :, :w] = g
        gf = gp.reshape(cout, n)
        d_weight = np.empty_like(weight.data)
        d_xf = np.zeros_like(xf)
        for ki, kj, o in taps:
            d_weight[:, :, ki, kj] = gf @ xf[:, o:o + n].T
            d_xf[:, o:o + n] += weight.data[:, :, ki, kj].T @ gf
        d_x = d_xf.reshape(cin, -1, wp)[:, pad:pad + h, pad:pad + w]
        return (d_x, d_weight, g.reshape(cout, -1).sum(axis=1))

    return Tensor(out_data, _parents=(x, weight, bias), _backward=backward)
