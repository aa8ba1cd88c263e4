"""The chains of small tape ops that the package's fused nodes replace,
and the small ops themselves: the oracle those nodes are checked against.

The package records every node through `autodiff.record`. The op layer
here is the one it used to build graphs from: each op dispatches on its
arguments' types, ordinary numpy on plain arrays, one tape node per op on
Vars (`_binary`, `_unary`, `add` ... `take`, and callable forms of the
package's elementwise formula pairs). Each chain below is the composed
form the package ran before its fused node existed: `softmax` and
`log_softmax` for `autodiff.softmax` and the log-softmax inside the
cross-entropy and KL nodes, `dense`, `forward` (one leaf per module) and
`cross_entropy` for `model`, `fine_tune` for `harness.fine_tune`'s flat
loop, the three preservation losses for `losses`, `squash`, `gate`,
`mix`, `sparsity_term`, `width_term` and `make_objective` for the
compression objective in `training`, and `projected_distances` and
`metric_objective` for `merging.metric_objective`. On a tape each records
one node per small op, so its gradients come from the per-op VJPs alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from taskswitch import autodiff as ad
from taskswitch.autodiff import Var, _np, _unbroadcast
from taskswitch.bitwidth import CANDIDATE_WIDTHS
from taskswitch.losses import CKA_DEGENERATE_TOL, centering_matrix
from taskswitch.merging import DIST_EPS, NUM_FLOOR, _nearest
from taskswitch.model import ACTIVATIONS
from taskswitch.optim import Adam, Sgd
from taskswitch.seeding import rng_for
from taskswitch.training import EPS_RANGE
from taskswitch.vectors import ParamSet


# -- the op layer -----------------------------------------------------------

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
    """A one-argument op; op.fwd and op.vjp(g, x, out) stay reachable."""
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


def transpose(x):
    return _unary(x, lambda v: v.T, lambda g, v, out: g.T)


# the package's elementwise formula pairs as ops, plus the two only the
# chains use
square, sqrt, tanh, arctan, relu, sigmoid, softplus = (
    _elementwise(*pair) for pair in (ad.square, ad.sqrt, ad.tanh, ad.arctan,
                                     ad.relu, ad.sigmoid, ad.softplus))
log = _elementwise(np.log, lambda g, v, out: g / v)


def exp(x):
    return _unary(x, np.exp, lambda g, v, out: g * out)


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


def mean(x, axis=None, keepdims=False):
    xv = _np(x)
    n = xv.size if axis is None else xv.shape[axis]
    return div(sum_(x, axis=axis, keepdims=keepdims), float(n))


def take(x, i: int | slice):
    """x[i] along the first axis; the gradient scatters back to i."""
    def vjp(g, v, out):
        grad = np.zeros_like(v)
        grad[i] = g
        return grad
    return _unary(x, lambda v: v[i], vjp)


def reshape(x, shape):
    return _unary(x, lambda v: v.reshape(shape),
                  lambda g, v, out: g.reshape(v.shape))


def _segment_sums(v: np.ndarray, counts) -> np.ndarray:
    """Sums of consecutive runs of counts[k] entries along the last axis;
    an empty run sums to 0."""
    counts = np.asarray(counts)
    live = counts > 0
    # reduceat over the non-empty starts alone ends each run where the next
    # non-empty one begins; the empty runs stay zero.
    out = np.zeros(v.shape[:-1] + counts.shape)
    out[..., live] = np.add.reduceat(v, (counts.cumsum() - counts)[live],
                                     axis=-1)
    return out


def repeat(x, counts):
    """Last-axis entry k repeated counts[k] times (np.repeat), one node."""
    return _unary(x, lambda v: np.repeat(v, counts, axis=-1),
                  lambda g, v, out: _segment_sums(g, counts))


def segment_sum(x, counts):
    """Sums of consecutive last-axis runs of counts[k]; adjoint of repeat."""
    return _unary(x, lambda v: _segment_sums(v, counts),
                  lambda g, v, out: np.repeat(g, counts, axis=-1))


def softmax(x, axis=-1):
    shift = np.max(ad._np(x), axis=axis, keepdims=True)  # shift-invariant
    e = exp(sub(x, shift))
    return div(e, sum_(e, axis=axis, keepdims=True))


def log_softmax(x, axis=-1):
    shift = np.max(ad._np(x), axis=axis, keepdims=True)
    z = sub(x, shift)
    return sub(z, log(sum_(exp(z), axis=axis, keepdims=True)))


# -- model ------------------------------------------------------------------

def dense(a, w, b, fan_out: int, act=None):
    """act(a @ w.reshape(fan_out, fan_in).T + b), node by node."""
    fan_in = ad._np(w).size // fan_out
    z = add(matmul(a, transpose(reshape(w, (fan_out, fan_in)))), b)
    return z if act is None else _elementwise(*act)(z)


class Outputs(NamedTuple):
    logits: object     # (batch, classes)
    features: object   # penultimate activation, (batch, feature_dim)


def forward(spec, params, x) -> Outputs:
    lookup = dict(params.modules if isinstance(params, ParamSet)
                  else params)
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    act = ACTIVATIONS[spec.activation]
    for i in range(spec.n_layers):
        w, b = lookup[f"layer{i}.weight"], lookup[f"layer{i}.bias"]
        if i < spec.n_layers - 1:
            a = dense(a, w, b, spec.widths[i + 1], act)
        else:
            return Outputs(logits=dense(a, w, b, spec.widths[i + 1]),
                           features=a)
    raise AssertionError("unreachable")


def cross_entropy(logits, labels):
    labels = np.asarray(labels, dtype=np.int64)
    batch = labels.shape[0]
    onehot = np.zeros((batch, ad._np(logits).shape[1]))
    onehot[np.arange(batch), labels] = 1.0
    log_p = log_softmax(logits, axis=-1)
    return mul(sum_(mul(log_p, onehot)), -1.0 / batch)


def fine_tune(spec, params, x, y, steps, lr, batch_size, optimizer, seed=0):
    """`harness.fine_tune` as a per-module loop: a leaf and an optimizer
    per module, the network and the loss composed, and one integers draw
    per step."""
    opts = {name: {"adam": Adam, "sgd": Sgd}[optimizer]()
            for name in params.names}
    rng = rng_for(seed, "fine-tune")
    values = dict(params.copy().modules)
    for _ in range(steps):
        idx = rng.integers(0, x.shape[0], size=batch_size)
        _, grads = ad.value_and_grad(
            lambda leaves: cross_entropy(
                forward(spec, leaves, x[idx]).logits, y[idx]), values)
        values = {name: opts[name].step(v, grads[name], lr)
                  for name, v in values.items()}
    return ParamSet(list(values.items()))


# -- losses -----------------------------------------------------------------

def kl_loss(ref_logits, cmp_logits, temperature: float = 4.0):
    ref = np.asarray(ref_logits, dtype=np.float64)
    t = float(temperature)
    q = softmax(ref / t)
    log_p = log_softmax(div(cmp_logits, t))
    per_elem = mul(q, sub(np.log(q), log_p))
    return mul(sum_(per_elem), t * t / ref.shape[0])


def mse_loss(ref, cmp):
    ref = np.asarray(ref, dtype=np.float64)
    d = sub(cmp, ref)
    return div(sum_(square(d)), float(ref.shape[0]))


def cka_loss(ref_feats, cmp_feats):
    ref = np.asarray(ref_feats, dtype=np.float64)
    h = centering_matrix(ref.shape[0])
    ref_th = ref.T @ h
    den_ref = float(np.linalg.norm(ref_th @ ref))
    cross = matmul(ref_th, cmp_feats)
    cmp_t = transpose(cmp_feats)
    gram_cmp = matmul(matmul(cmp_t, h), cmp_feats)
    den_cmp_sq = sum_(square(gram_cmp))
    den_cmp_val = float(np.sqrt(max(float(ad._np(den_cmp_sq)), 0.0)))
    if den_ref * den_cmp_val < CKA_DEGENERATE_TOL:
        return 1.0
    num = sum_(square(cross))
    den = mul(sqrt(den_cmp_sq), den_ref)
    return sub(1.0, div(num, den))


def preservation_loss(kind, ref, cmp, temperature=4.0):
    if kind == "kl":
        return kl_loss(ref, cmp, temperature=temperature)
    return {"mse": mse_loss, "cka": cka_loss}[kind](ref, cmp)


# -- the compression objective ----------------------------------------------

def squash(s):
    """arctan(s)/pi + 0.5: monotone map of the real line onto (0, 1)."""
    return add(div(arctan(s), math.pi), 0.5)


def gate(sm, gates, rho):
    """(soft membership, scale) of every module, node by node."""
    denom = np.repeat(rho * np.maximum(sm.width, EPS_RANGE), sm.sizes,
                      axis=1)
    thresholds = add(sm.lo, mul(squash(take(gates, slice(0, 2))),
                                      sm.width))
    z = div(sub(sm.signed, repeat(thresholds, sm.sizes)), denom)
    soft = sum_(mul(sigmoid(z), sm.live), axis=0)
    return soft, softplus(take(gates, 2))


def mix(sm, scale, soft, w):
    """base + scale * soft * blend, with the width blend as its own chain."""
    blended = sum_(mul(repeat(transpose(w), sm.sizes), sm.quant),
                      axis=0)
    return add(sm.base, mul(mul(repeat(scale, sm.sizes), soft),
                                  blended))


def sparsity_term(sm, soft):
    return div(sum_(segment_sum(soft, sm.sizes)), float(sm.base.size))


def width_term(w, norm):
    widths = np.asarray(CANDIDATE_WIDTHS, dtype=np.float64)
    return div(sum_(sum_(mul(w, widths), axis=1)), norm)


def make_objective(spec, sm, ref, batch_x, kind, lam, temp, rho, omega):
    """`training.make_objective` with every piece composed. It takes the
    batch's raw reference outputs, not their `losses.reference_side`, and
    composes the preservation loss from them."""
    bit_norm = float(len(sm.sizes) * max(CANDIDATE_WIDTHS))
    ends = np.cumsum(sm.sizes)
    spans = list(zip(spec.module_names(), ends - sm.sizes, ends))

    def objective(leaves, return_parts: bool = False):
        soft, scale = gate(sm, leaves["gates"], rho)
        w = softmax(div(leaves["bits"], float(omega)))
        flat = mix(sm, scale, soft, w)
        params = {n: take(flat, slice(a, b)) for n, a, b in spans}
        out = forward(spec, params, batch_x)
        cmp = out.features if kind == "cka" else out.logits
        l_per = preservation_loss(kind, ref, cmp, temperature=temp)
        l_sp = sparsity_term(sm, soft)
        l_bit = width_term(w, bit_norm)
        total = add(add(l_sp, l_bit), mul(l_per, lam))
        if return_parts:
            return total, {"sparsity": float(ad._np(l_sp)),
                           "bits": float(ad._np(l_bit)),
                           "preserve": float(ad._np(l_per)),
                           "total": float(ad._np(total))}
        return total
    return objective


# -- the metric objective ---------------------------------------------------

def projected_distances(projection, feats, centers):
    """Pairwise distances in projection space; works on arrays or Vars."""
    pf = matmul(feats, transpose(projection))
    pc = matmul(centers, transpose(projection))
    f2 = sum_(square(pf), axis=1, keepdims=True)
    c2 = sum_(square(pc), axis=1, keepdims=True)
    d2 = add(add(f2, transpose(c2)),
             mul(matmul(pf, transpose(pc)), -2.0))
    return sqrt(maximum(d2, 1e-30))


def metric_objective(projection, feats, centers, labels, task_of_row,
                     n_neighbors):
    """`merging.metric_objective` node by node; a zero loss is -0.0 here."""
    d = projected_distances(projection, feats, centers)
    mask_all = _nearest(_np(d), n_neighbors).astype(np.float64)
    mask_correct = mask_all * (labels[None, :] == task_of_row[:, None])
    inv = div(1.0, maximum(d, DIST_EPS))
    num = sum_(mul(inv, mask_correct), axis=1)
    den = sum_(mul(inv, mask_all), axis=1)
    ratio = minimum(div(maximum(num, NUM_FLOOR), den), 1.0)
    return mul(mean(log(ratio)), -1.0)
