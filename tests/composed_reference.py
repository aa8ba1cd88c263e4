"""The chains of small tape ops that the package's fused nodes replace:
the oracle those nodes are checked against.

Each function is the composed form the package ran before its fused node
existed: `softmax` and `log_softmax` for `autodiff.softmax` and the
log-softmax inside the cross-entropy and KL nodes, `dense`, `forward` and
`cross_entropy` for `model`, the three preservation losses for `losses`,
and `gate`, `mix`, `sparsity_term`, `width_term` and `make_objective` for
the compression objective in `training`. On a tape each records one node
per small op, so its gradients come from the per-op VJPs alone. The small
ops that only these chains use (`exp`, `reshape`, `repeat`,
`segment_sum`) live here too.
"""

from __future__ import annotations

import numpy as np

from taskswitch import autodiff as ad
from taskswitch.bitwidth import CANDIDATE_WIDTHS
from taskswitch.losses import CKA_DEGENERATE_TOL, centering_matrix
from taskswitch.model import ACTIVATIONS, ForwardResult
from taskswitch.training import EPS_RANGE, squash
from taskswitch.vectors import ParamSet


def exp(x):
    return ad._unary(x, np.exp, lambda g, v, out: g * out)


def reshape(x, shape):
    return ad._unary(x, lambda v: v.reshape(shape),
                     lambda g, v, out: g.reshape(v.shape))


def repeat(x, counts):
    """Last-axis entry k repeated counts[k] times (np.repeat), one node."""
    return ad._unary(x, lambda v: np.repeat(v, counts, axis=-1),
                     lambda g, v, out: ad._segment_sums(g, counts))


def segment_sum(x, counts):
    """Sums of consecutive last-axis runs of counts[k]; adjoint of repeat."""
    return ad._unary(x, lambda v: ad._segment_sums(v, counts),
                     lambda g, v, out: np.repeat(g, counts, axis=-1))


def softmax(x, axis=-1):
    shift = np.max(ad._np(x), axis=axis, keepdims=True)  # shift-invariant
    e = exp(ad.sub(x, shift))
    return ad.div(e, ad.sum_(e, axis=axis, keepdims=True))


def log_softmax(x, axis=-1):
    shift = np.max(ad._np(x), axis=axis, keepdims=True)
    z = ad.sub(x, shift)
    return ad.sub(z, ad.log(ad.sum_(exp(z), axis=axis, keepdims=True)))


# -- model ------------------------------------------------------------------

def dense(a, w, b, fan_out: int, act=None):
    """act(a @ w.reshape(fan_out, fan_in).T + b), node by node."""
    fan_in = ad._np(w).size // fan_out
    z = ad.add(ad.matmul(a, ad.transpose(reshape(w, (fan_out, fan_in)))), b)
    return z if act is None else act(z)


def forward(spec, params, x) -> ForwardResult:
    lookup = dict(params.modules if isinstance(params, ParamSet)
                  else params)
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    act = ACTIVATIONS[spec.activation]
    for i in range(spec.n_layers):
        w, b = lookup[f"layer{i}.weight"], lookup[f"layer{i}.bias"]
        if i < spec.n_layers - 1:
            a = dense(a, w, b, spec.widths[i + 1], act)
        else:
            return ForwardResult(logits=dense(a, w, b, spec.widths[i + 1]),
                                 features=a)
    raise AssertionError("unreachable")


def cross_entropy(logits, labels):
    labels = np.asarray(labels, dtype=np.int64)
    batch = labels.shape[0]
    onehot = np.zeros((batch, ad._np(logits).shape[1]))
    onehot[np.arange(batch), labels] = 1.0
    log_p = log_softmax(logits, axis=-1)
    return ad.mul(ad.sum_(ad.mul(log_p, onehot)), -1.0 / batch)


# -- losses -----------------------------------------------------------------

def kl_loss(ref_logits, cmp_logits, temperature: float = 4.0):
    ref = np.asarray(ref_logits, dtype=np.float64)
    t = float(temperature)
    q = softmax(ref / t)
    log_p = log_softmax(ad.div(cmp_logits, t))
    per_elem = ad.mul(q, ad.sub(np.log(q), log_p))
    return ad.mul(ad.sum_(per_elem), t * t / ref.shape[0])


def mse_loss(ref, cmp):
    ref = np.asarray(ref, dtype=np.float64)
    d = ad.sub(cmp, ref)
    return ad.div(ad.sum_(ad.square(d)), float(ref.shape[0]))


def cka_loss(ref_feats, cmp_feats):
    ref = np.asarray(ref_feats, dtype=np.float64)
    h = centering_matrix(ref.shape[0])
    ref_th = ref.T @ h
    den_ref = float(np.linalg.norm(ref_th @ ref))
    cross = ad.matmul(ref_th, cmp_feats)
    cmp_t = ad.transpose(cmp_feats)
    gram_cmp = ad.matmul(ad.matmul(cmp_t, h), cmp_feats)
    den_cmp_sq = ad.sum_(ad.square(gram_cmp))
    den_cmp_val = float(np.sqrt(max(float(ad._np(den_cmp_sq)), 0.0)))
    if den_ref * den_cmp_val < CKA_DEGENERATE_TOL:
        return 1.0
    num = ad.sum_(ad.square(cross))
    den = ad.mul(ad.sqrt(den_cmp_sq), den_ref)
    return ad.sub(1.0, ad.div(num, den))


def preservation_loss(kind, ref, cmp, temperature=4.0):
    if kind == "kl":
        return kl_loss(ref, cmp, temperature=temperature)
    return {"mse": mse_loss, "cka": cka_loss}[kind](ref, cmp)


# -- the compression objective ----------------------------------------------

def gate(sm, gates, rho):
    """(soft membership, scale) of every module, node by node."""
    denom = np.repeat(rho * np.maximum(sm.width, EPS_RANGE), sm.sizes,
                      axis=1)
    thresholds = ad.add(sm.lo, ad.mul(squash(ad.take(gates, slice(0, 2))),
                                      sm.width))
    z = ad.div(ad.sub(sm.signed, repeat(thresholds, sm.sizes)), denom)
    soft = ad.sum_(ad.mul(ad.sigmoid(z), sm.live), axis=0)
    return soft, ad.softplus(ad.take(gates, 2))


def mix(sm, scale, soft, w):
    """base + scale * soft * blend, with the width blend as its own chain."""
    blended = ad.sum_(ad.mul(repeat(ad.transpose(w), sm.sizes), sm.quant),
                      axis=0)
    return ad.add(sm.base, ad.mul(ad.mul(repeat(scale, sm.sizes), soft),
                                  blended))


def sparsity_term(sm, soft):
    return ad.div(ad.sum_(segment_sum(soft, sm.sizes)), float(sm.base.size))


def width_term(w, norm):
    widths = np.asarray(CANDIDATE_WIDTHS, dtype=np.float64)
    return ad.div(ad.sum_(ad.sum_(ad.mul(w, widths), axis=1)), norm)


def make_objective(spec, sm, ref, batch_x, kind, lam, temp, rho, omega):
    """`training.make_objective` with every piece composed."""
    bit_norm = float(len(sm.names) * max(CANDIDATE_WIDTHS))
    ends = np.cumsum(sm.sizes)
    spans = list(zip(sm.names, ends - sm.sizes, ends))

    def objective(leaves, return_parts: bool = False):
        soft, scale = gate(sm, leaves["gates"], rho)
        w = softmax(ad.div(leaves["bits"], float(omega)))
        flat = mix(sm, scale, soft, w)
        params = {n: ad.take(flat, slice(a, b)) for n, a, b in spans}
        out = forward(spec, params, batch_x)
        cmp = out.features if kind == "cka" else out.logits
        l_per = preservation_loss(kind, ref, cmp, temperature=temp)
        l_sp = sparsity_term(sm, soft)
        l_bit = width_term(w, bit_norm)
        total = ad.add(ad.add(l_sp, l_bit), ad.mul(l_per, lam))
        if return_parts:
            return total, {"sparsity": float(ad._np(l_sp)),
                           "bits": float(ad._np(l_bit)),
                           "preserve": float(ad._np(l_per)),
                           "total": float(ad._np(total))}
        return total
    return objective
