"""Minimal reverse-mode gradient tape over numpy arrays.

The op functions below dispatch on argument type: with plain arrays they are
ordinary numpy, with Var arguments they record a node on the owning tape.
Formula code written against these functions therefore runs identically as a
pure evaluation (used by finite differences) or as a differentiable graph.
The tape records nodes in creation order, which is already a topological
order, so backward is a single reversed sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _np(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    grad = np.asarray(grad, dtype=np.float64)
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
        return Var(self, np.asarray(value, dtype=np.float64), parents=())

    def _record(self, node: "Var") -> None:
        self._nodes.append(node)

    def backward(self, out: "Var") -> None:
        if out.tape is not self:
            raise ValueError("output does not belong to this tape")
        if out.value.size != 1:
            raise ValueError("backward expects a scalar output")
        out.grad = np.ones_like(out.value)
        for node in reversed(self._nodes):
            if node.grad is None:
                continue
            for parent, vjp in node.parents:
                g = vjp(node.grad)
                if parent.grad is None:
                    parent.grad = np.asarray(g, dtype=np.float64).copy()
                else:
                    parent.grad = parent.grad + g


class Var:
    __slots__ = ("tape", "value", "parents", "grad")

    def __init__(self, tape: Tape, value: np.ndarray, parents):
        self.tape = tape
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.grad: np.ndarray | None = None
        tape._record(self)

    def __repr__(self):
        return f"Var(shape={self.value.shape}, leaf={not self.parents})"


def _tape_of(*args) -> Tape | None:
    tape = None
    for a in args:
        if isinstance(a, Var):
            if tape is None:
                tape = a.tape
            elif a.tape is not tape:
                raise ValueError("operands live on different tapes")
    return tape


def _binary(a, b, fwd, vjp_a, vjp_b) -> Var | np.ndarray:
    tape = _tape_of(a, b)
    av, bv = _np(a), _np(b)
    out = fwd(av, bv)
    if tape is None:
        return out
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(vjp_a(g, av, bv), av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(vjp_b(g, av, bv), bv.shape)))
    return Var(tape, out, parents)


def _unary(x, fwd, vjp) -> Var | np.ndarray:
    tape = _tape_of(x)
    xv = _np(x)
    out = fwd(xv)
    if tape is None:
        return out
    return Var(tape, out, [(x, lambda g: vjp(g, xv, out))])


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


def square(x):
    return _unary(x, lambda v: v ** 2, lambda g, v, out: g * 2 * v)


def transpose(x):
    return _unary(x, lambda v: v.T, lambda g, v, out: np.asarray(g).T)


def reshape(x, shape):
    return _unary(x, lambda v: v.reshape(shape),
                  lambda g, v, out: np.asarray(g).reshape(v.shape))


def exp(x):
    return _unary(x, np.exp, lambda g, v, out: g * out)


def log(x):
    return _unary(x, np.log, lambda g, v, out: g / v)


def sqrt(x):
    return _unary(x, np.sqrt, lambda g, v, out: g / (2.0 * out))


def tanh(x):
    return _unary(x, np.tanh, lambda g, v, out: g * (1.0 - out * out))


def arctan(x):
    return _unary(x, np.arctan, lambda g, v, out: g / (1.0 + v * v))


def relu(x):
    return _unary(x, lambda v: np.maximum(v, 0.0),
                  lambda g, v, out: g * (v > 0.0))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument on both branches: no overflow.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x):
    return _unary(x, _sigmoid_np, lambda g, v, out: g * out * (1.0 - out))


def _softplus_np(x: np.ndarray) -> np.ndarray:
    # log1p(exp(x)) below the linear regime, x itself above it.
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


def softplus(x):
    return _unary(x, _softplus_np, lambda g, v, out: g * _sigmoid_np(v))


def maximum(x, floor: float):
    """Elementwise max with a constant; gradient passes only above it."""
    return _unary(x, lambda v: np.maximum(v, floor),
                  lambda g, v, out: g * (v > floor))


def sum_(x, axis=None, keepdims=False):
    def vjp(g, v, out):
        g = np.asarray(g, dtype=np.float64)
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
    starts = np.cumsum(counts) - counts
    if np.all(counts > 0):
        return np.add.reduceat(v, starts, axis=-1)
    # reduceat over the non-empty starts alone ends each run where the next
    # non-empty one begins; the empty runs stay zero.
    live = counts > 0
    out = np.zeros(v.shape[:-1] + counts.shape)
    out[..., live] = np.add.reduceat(v, starts[live], axis=-1)
    return out


def repeat(x, counts):
    """Last-axis entry k repeated counts[k] times (np.repeat), one node."""
    return _unary(x, lambda v: np.repeat(v, counts, axis=-1),
                  lambda g, v, out: _segment_sums(g, counts))


def segment_sum(x, counts):
    """Sums of consecutive last-axis runs of counts[k]; adjoint of repeat."""
    return _unary(x, lambda v: _segment_sums(v, counts),
                  lambda g, v, out: np.repeat(g, counts, axis=-1))


def mean(x, axis=None, keepdims=False):
    xv = _np(x)
    n = xv.size if axis is None else xv.shape[axis]
    return div(sum_(x, axis=axis, keepdims=keepdims), float(n))


def softmax(x, axis=-1):
    shift = np.max(_np(x), axis=axis, keepdims=True)  # constant: shift-invariant
    e = exp(sub(x, shift))
    return div(e, sum_(e, axis=axis, keepdims=True))


def log_softmax(x, axis=-1):
    shift = np.max(_np(x), axis=axis, keepdims=True)
    z = sub(x, shift)
    return sub(z, log(sum_(exp(z), axis=axis, keepdims=True)))


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
    return result, grads


@dataclass
class FdReport:
    """Central finite-difference cross-check of tape gradients."""

    analytic: dict[str, np.ndarray]
    numeric: dict[str, np.ndarray]
    rel_err: dict[str, np.ndarray]
    frac_within_tol: float
    max_rel_err: float
    tol: float
    excluded: dict[str, np.ndarray] = field(default_factory=dict)


def fd_check(objective, leaves: dict[str, np.ndarray], h: float = 1e-5,
             tol: float = 1e-4, exclude: dict[str, np.ndarray] | None = None,
             ) -> FdReport:
    """Compare tape gradients of objective(leaves) against central differences.

    objective must accept a mapping name -> Var (tape mode) or name -> array
    (plain mode) and return the scalar objective. `exclude` marks coordinates
    (e.g. straight-through quantizer inputs) left out of the pass fraction.
    """
    leaves = {k: np.asarray(v, dtype=np.float64) for k, v in leaves.items()}
    _, analytic = value_and_grad(objective, leaves)

    def eval_at(vals: dict[str, np.ndarray]) -> float:
        return float(np.asarray(_np(objective(vals))))

    numeric = {}
    for name, base in leaves.items():
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        for i in range(flat.size):
            bumped = dict(leaves)
            up = base.copy().reshape(-1)
            up[i] += h
            bumped[name] = up.reshape(base.shape)
            f_up = eval_at(bumped)
            down = base.copy().reshape(-1)
            down[i] -= h
            bumped[name] = down.reshape(base.shape)
            f_down = eval_at(bumped)
            g.reshape(-1)[i] = (f_up - f_down) / (2.0 * h)
        numeric[name] = g

    rel_err = {}
    n_ok = 0
    n_all = 0
    worst = 0.0
    excluded = dict(exclude or {})
    for name in leaves:
        ga, gn = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
        err = np.abs(ga - gn) / denom
        rel_err[name] = err
        keep = ~excluded[name].astype(bool) if name in excluded \
            else np.ones_like(err, dtype=bool)
        if np.any(keep):
            n_ok += int(np.sum(err[keep] <= tol))
            n_all += int(np.sum(keep))
            worst = max(worst, float(err[keep].max()))
    frac = n_ok / n_all if n_all else 1.0
    return FdReport(analytic, numeric, rel_err, frac, worst, tol, excluded)
