"""Performance-preservation losses between reference and compressed outputs.

All three take the reference activations as a plain array (the cached
fine-tuned model outputs) and the comparison side either as an array or as
a tape Var, in which case the loss is differentiable w.r.t. it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

CKA_DEGENERATE_TOL = 1e-30

# Preset sweeps for the preservation weight, one per loss kind, plus the
# default used when nothing is specified.
LAMBDA_PRESETS = {
    "kl": (0.1, 0.3, 0.5, 0.7, 0.9),
    "mse": (0.01, 0.05, 0.09, 0.13, 0.17),
    "cka": (1.0, 3.0, 5.0, 7.0, 9.0),
}
DEFAULT_LAMBDA = {"kl": 0.3, "mse": 0.05, "cka": 3.0}


def kl_loss(ref_logits: np.ndarray, cmp_logits, temperature: float = 4.0):
    """Temperature-softened KL from the reference to the comparison model.

    (T^2 / B) * sum_i KL(softmax(ref_i/T) || softmax(cmp_i/T)). The T^2
    factor keeps gradient magnitudes comparable across temperatures. One
    tape node; its backward is that of the divide, log-softmax, subtract,
    product and sum as separate nodes, operation for operation.
    """
    return _kl(*reference_side("kl", ref_logits, temperature), cmp_logits,
               temperature)


def _kl(q: np.ndarray, log_q: np.ndarray, cmp_logits, temperature: float):
    """kl_loss from its reference side: q = softmax(ref / T) and log(q)."""
    t = np.asarray(float(temperature))
    factor = np.asarray(t * t / q.shape[0])
    log_p, e, s = ad.log_softmax_parts(ad._np(cmp_logits) / t)

    def vjp(g):
        return (ad.log_softmax_vjp(-(g * factor * q), e, s) / t,)
    return ad.record((cmp_logits,), (q * (log_q - log_p)).sum() * factor,
                     vjp)


def mse_loss(ref: np.ndarray, cmp):
    """Mean (over the batch) squared l2 distance between output rows, one
    tape node."""
    ref = np.asarray(ref, dtype=np.float64)
    batch = np.asarray(float(ref.shape[0]))
    d = ad._np(cmp) - ref
    return ad.record((cmp,), (d ** 2).sum() / batch,
                     lambda g: (ad.square.vjp(g / batch, d, None),))


def centering_matrix(batch: int) -> np.ndarray:
    return np.eye(batch) - np.ones((batch, batch)) / batch


def cka_loss(ref_feats: np.ndarray, cmp_feats):
    """1 - centered kernel alignment between feature matrices.

    Alignment is ||F^T H Fhat||_F^2 / (||F^T H F||_F ||Fhat^T H Fhat||_F)
    with H the centering matrix. A vanishing denominator (constant
    features) returns the constant loss 1.0. One tape node; its backward is
    that of the products, squares, sums and quotient as separate nodes,
    operation for operation.
    """
    ref = np.asarray(ref_feats, dtype=np.float64)
    if ref.ndim != 2 or ref.shape[0] < 2:
        raise ValueError("expected a (batch >= 2, features) array")
    batch = ref.shape[0]
    h = centering_matrix(batch)
    ref_th = ref.T @ h                       # constant (features x batch)
    den_ref = float(np.linalg.norm(ref_th @ ref))
    f = ad._np(cmp_feats)
    cross = ref_th @ f
    f_th = f.T @ h
    gram = f_th @ f
    den_sq = (gram ** 2).sum()
    if den_ref * float(np.sqrt(max(float(den_sq), 0.0))) < CKA_DEGENERATE_TOL:
        # Constant loss, zero gradient: nothing to align against.
        return 1.0
    num = (cross ** 2).sum()
    root = np.sqrt(den_sq)
    den = root * np.asarray(den_ref)

    def vjp(g):
        g_ratio = -g
        g_den = -g_ratio * num / (den * den)
        g_gram = ad.square.vjp(ad.sqrt.vjp(g_den * den_ref, den_sq, root),
                               gram, None)
        g_cross = ad.square.vjp(g_ratio / den, cross, None)
        return ((f_th.T @ g_gram + ((g_gram @ f.T) @ h.T).T)
                + ref_th.T @ g_cross,)
    return ad.record((cmp_feats,), np.asarray(1.0) - num / den, vjp)


def reference_side(kind: str, ref: np.ndarray, temperature: float = 4.0,
                   ) -> tuple[np.ndarray, ...]:
    """What a preservation loss takes from the reference rows alone, row by
    row: softmax(ref / T) and its log for kl, the rows themselves for mse
    and cka. Its arrays indexed by rows are those rows' side, so a training
    run computes it once over all its exemplars."""
    ref = np.asarray(ref, dtype=np.float64)
    if kind == "kl":
        if ref.ndim != 2:
            raise ValueError("expected a (batch, classes) array")
        q = ad.softmax(ref, temperature=float(temperature))
        return q, np.log(q)
    if kind in ("mse", "cka"):
        return (ref,)
    raise ValueError(f"unknown preservation loss {kind!r}")


def preservation_loss(kind: str, ref: np.ndarray, cmp,
                      temperature: float = 4.0):
    """Dispatch to one of the three preservation losses by name."""
    return loss_from_side(kind, reference_side(kind, ref, temperature), cmp,
                          temperature)


def loss_from_side(kind: str, side: tuple[np.ndarray, ...], cmp,
                   temperature: float = 4.0):
    """preservation_loss of the rows whose reference_side is side."""
    if kind == "kl":
        return _kl(*side, cmp, temperature)
    if kind == "mse":
        return mse_loss(side[0], cmp)
    if kind == "cka":
        return cka_loss(side[0], cmp)
    raise ValueError(f"unknown preservation loss {kind!r}")
