"""Minimal reverse-mode gradient tape over numpy arrays.

The op functions below dispatch on argument type: with plain arrays they are
ordinary numpy, with Var arguments they record a node on the owning tape.
Formula code written against these functions therefore runs identically as a
pure evaluation (used by finite differences) or as a differentiable graph.

A node stores its parents and one vector-Jacobian product that returns a
gradient per parent. A composite op (`softmax` here; the dense layer, the
cross-entropy, the preservation losses and the compression objective's
pieces beside their callers) records a single node through `record`. Its
hand-written VJP runs the numpy operations of the chain of small ops it
replaces, in the same order, so values and gradients are bit-equal to that
chain, which the tests keep as the oracle. The tape records nodes in
creation order, which is already a topological order, so backward is a
single reversed sweep.
"""

from __future__ import annotations

import numpy as np


def _np(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Records Vars in creation order; backward() walks them in reverse."""

    def __init__(self):
        self._nodes: list[Var] = []

    def var(self, value) -> "Var":
        """New leaf variable that accumulates gradient."""
        return Var(self, np.asarray(value, dtype=np.float64), (), None)

    def backward(self, out: "Var") -> None:
        if out.tape is not self:
            raise ValueError("output does not belong to this tape")
        if out.value.size != 1:
            raise ValueError("backward expects a scalar output")
        out.grad = np.ones_like(out.value)
        for node in reversed(self._nodes):
            if node.grad is None or node.vjp is None:
                continue
            # Gradients are never written in place, so a parent may hold
            # the very array its child passed down.
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if parent is not None:
                    parent.grad = g if parent.grad is None \
                        else parent.grad + g


class Var:
    """A value on a tape: its parents (None for a constant operand) and the
    VJP that maps its gradient to one gradient per parent."""

    __slots__ = ("tape", "value", "parents", "vjp", "grad")

    def __init__(self, tape: Tape, value, parents: tuple, vjp):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        tape._nodes.append(self)

    def __repr__(self):
        return f"Var(shape={np.shape(self.value)}, leaf={self.vjp is None})"


def record(args: tuple, value, vjp):
    """value, computed from args, as one node when any arg is a Var.

    vjp(g) returns one gradient per arg, in order and shaped like it; the
    entries of args that are not Vars are never read (None will do). With
    no Var among args, value comes back as it is: the forward alone.
    """
    tape = None
    for a in args:
        if isinstance(a, Var):
            if tape is None:
                tape = a.tape
            elif a.tape is not tape:
                raise ValueError("operands live on different tapes")
    if tape is None:
        return value
    return Var(tape, value,
               tuple(a if isinstance(a, Var) else None for a in args), vjp)


def _binary(a, b, fwd, vjp_a, vjp_b) -> Var | np.ndarray:
    av, bv = _np(a), _np(b)
    out = fwd(av, bv)
    need_a, need_b = isinstance(a, Var), isinstance(b, Var)
    if not (need_a or need_b):
        return out
    if need_a and need_b and a.tape is not b.tape:
        raise ValueError("operands live on different tapes")

    def vjp(g):
        return (_unbroadcast(vjp_a(g, av, bv), av.shape) if need_a else None,
                _unbroadcast(vjp_b(g, av, bv), bv.shape) if need_b else None)
    return Var((a if need_a else b).tape, out,
               (a if need_a else None, b if need_b else None), vjp)


def _unary(x, fwd, vjp) -> Var | np.ndarray:
    if not isinstance(x, Var):
        return fwd(np.asarray(x, dtype=np.float64))
    xv = x.value
    out = fwd(xv)
    return Var(x.tape, out, (x,), lambda g: (vjp(g, xv, out),))


def _elementwise(fwd, vjp):
    """A one-argument op; op.fwd and op.vjp(g, x, out) stay reachable, so
    a fused node runs the same formulas."""
    def op(x):
        return _unary(x, fwd, vjp)
    op.fwd, op.vjp = fwd, vjp
    return op


def add(a, b):
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def matmul(a, b):
    return _binary(a, b, lambda x, y: x @ y,
                   lambda g, x, y: g @ y.T, lambda g, x, y: x.T @ g)


square = _elementwise(lambda v: v ** 2, lambda g, v, out: g * 2 * v)


def transpose(x):
    return _unary(x, lambda v: v.T, lambda g, v, out: g.T)


log = _elementwise(np.log, lambda g, v, out: g / v)
sqrt = _elementwise(np.sqrt, lambda g, v, out: g / (2.0 * out))
tanh = _elementwise(np.tanh, lambda g, v, out: g * (1.0 - out * out))
arctan = _elementwise(np.arctan, lambda g, v, out: g / (1.0 + v * v))
relu = _elementwise(lambda v: np.maximum(v, 0.0),
                    lambda g, v, out: g * (v > 0.0))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument on both branches: no overflow.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def _softplus_np(x: np.ndarray) -> np.ndarray:
    # log1p(exp(x)) below the linear regime, x itself above it.
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


sigmoid = _elementwise(_sigmoid_np, lambda g, v, out: g * out * (1.0 - out))
softplus = _elementwise(_softplus_np, lambda g, v, out: g * _sigmoid_np(v))


def maximum(x, floor: float):
    """Elementwise max with a constant; gradient passes only above it."""
    return _unary(x, lambda v: np.maximum(v, floor),
                  lambda g, v, out: g * (v > floor))


def minimum(x, ceiling: float):
    """Elementwise min with a constant; gradient passes at and below it."""
    return _unary(x, lambda v: np.minimum(v, ceiling),
                  lambda g, v, out: g * (v <= ceiling))


def sum_(x, axis=None, keepdims=False):
    def vjp(g, v, out):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, v.shape).copy()
    return _unary(x, lambda v: np.sum(v, axis=axis, keepdims=keepdims), vjp)


def take(x, i: int | slice):
    """x[i] along the first axis; the gradient scatters back to i."""
    def vjp(g, v, out):
        grad = np.zeros_like(v)
        grad[i] = g
        return grad
    return _unary(x, lambda v: v[i], vjp)


def _segment_sums(v: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of counts[k] entries along the last axis."""
    counts = np.asarray(counts)
    starts = counts.cumsum() - counts
    if counts.all():
        return np.add.reduceat(v, starts, axis=-1)
    # reduceat over the non-empty starts alone ends each run where the next
    # non-empty one begins; the empty runs stay zero.
    live = counts > 0
    out = np.zeros(v.shape[:-1] + counts.shape)
    out[..., live] = np.add.reduceat(v, starts[live], axis=-1)
    return out


def mean(x, axis=None, keepdims=False):
    xv = _np(x)
    n = xv.size if axis is None else xv.shape[axis]
    return div(sum_(x, axis=axis, keepdims=keepdims), float(n))


def softmax(x, axis=-1):
    """e / sum(e) along axis with e = exp(x - max(x)), one node. Its
    backward is that of the subtract, exp, sum and divide as separate
    nodes, operation for operation."""
    xv = _np(x)
    e = np.exp(xv - xv.max(axis=axis, keepdims=True))
    s = e.sum(axis=axis, keepdims=True)
    return record((x,), e / s, lambda g: (
        (g / s + _unbroadcast(-g * e / (s * s), s.shape)) * e,))


def log_softmax_parts(v: np.ndarray):
    """log_softmax(v) over the last axis and the (e, s) its backward takes:
    e = exp(v - max(v)) and its sum s."""
    z = v - v.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    return z - np.log(s), e, s


def log_softmax_vjp(g: np.ndarray, e: np.ndarray, s: np.ndarray,
                    ) -> np.ndarray:
    """log_softmax's input gradient from its output gradient g: the
    backward of the subtract, exp, sum and log as separate nodes,
    operation for operation. Fused nodes that end in a log-softmax call
    it."""
    return g + _unbroadcast(-g, s.shape) / s * e


def value_and_grad(fn, leaves: dict[str, np.ndarray]):
    """fn's result on leaves as Vars of a fresh tape, and each leaf's gradient.

    fn returns the scalar objective or a (scalar, extra) pair; either is
    handed back as fn returned it. A leaf the objective does not reach gets
    a zero gradient.
    """
    tape = Tape()
    lvars = {k: tape.var(v) for k, v in leaves.items()}
    result = fn(lvars)
    tape.backward(result[0] if isinstance(result, tuple) else result)
    grads = {k: v.grad if v.grad is not None else np.zeros_like(v.value)
             for k, v in lvars.items()}
    # Every Var refers to its tape and the tape to every Var: emptied, the
    # graph is freed by reference counting now instead of by a later
    # cyclic collection.
    tape._nodes.clear()
    return result, grads
