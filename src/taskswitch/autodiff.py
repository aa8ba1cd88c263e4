"""Minimal reverse-mode gradient tape over numpy arrays.

A graph has one kind of node. `Tape.var` makes a leaf; every other node is
recorded by `record`, which takes the node's value, computed on plain
arrays by its caller, and one vector-Jacobian product that returns a
gradient per parent. Called with no Var among its arguments, `record`
hands the value back as it is, so the same formula code runs as a plain
forward (as finite differences need) or as a node on a tape.

Each node is a whole composite: `softmax` here, and the network, the
cross-entropy, the preservation losses, the compression objective's pieces
and the metric objective beside their callers. A hand-written VJP runs the
numpy operations of the chain of small ops the node replaces, in the same
order, so values and gradients are bit-equal to that chain, which the
tests keep as the oracle. The elementwise formula pairs below (`square`,
`sqrt`, the activations, the gate's squashing functions) are what those
VJPs call. The tape records nodes in creation order, which is already a
topological order, so backward is a single reversed sweep.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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


class Elementwise(NamedTuple):
    """An elementwise function and its VJP vjp(g, x, out), g the gradient
    of out = fwd(x): the formulas fused nodes and ACTIVATIONS call."""

    fwd: Callable[[np.ndarray], np.ndarray]
    vjp: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument on both branches: no overflow.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def _softplus_np(x: np.ndarray) -> np.ndarray:
    # log1p(exp(x)) below the linear regime, x itself above it.
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


square = Elementwise(lambda v: v ** 2, lambda g, v, out: g * 2 * v)
sqrt = Elementwise(np.sqrt, lambda g, v, out: g / (2.0 * out))
tanh = Elementwise(np.tanh, lambda g, v, out: g * (1.0 - out * out))
arctan = Elementwise(np.arctan, lambda g, v, out: g / (1.0 + v * v))
relu = Elementwise(lambda v: np.maximum(v, 0.0),
                   lambda g, v, out: g * (v > 0.0))
sigmoid = Elementwise(_sigmoid_np,
                      lambda g, v, out: g * out * (1.0 - out))
softplus = Elementwise(_softplus_np, lambda g, v, out: g * _sigmoid_np(v))


def softmax(x, axis=-1, temperature=1.0):
    """e / sum(e) along axis with e = exp(v - max(v)) and v = x /
    temperature, one node. Its backward is that of the divide, subtract,
    exp, sum and divide as separate nodes, operation for operation."""
    xv = _np(x) / temperature
    e = np.exp(xv - xv.max(axis=axis, keepdims=True))
    s = e.sum(axis=axis, keepdims=True)
    return record((x,), e / s, lambda g: (
        (g / s + _unbroadcast(-g * e / (s * s), s.shape)) * e / temperature,))


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
