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
    factor keeps gradient magnitudes comparable across temperatures.
    """
    ref = np.asarray(ref_logits, dtype=np.float64)
    if ref.ndim != 2:
        raise ValueError("expected a (batch, classes) array")
    batch = ref.shape[0]
    t = float(temperature)
    q = ad.softmax(ref / t)
    log_q = np.log(q)
    log_p = ad.log_softmax(ad.div(cmp_logits, t))
    per_elem = ad.mul(q, ad.sub(log_q, log_p))
    return ad.mul(ad.sum_(per_elem), t * t / batch)


def mse_loss(ref: np.ndarray, cmp):
    """Mean (over the batch) squared l2 distance between output rows."""
    ref = np.asarray(ref, dtype=np.float64)
    batch = ref.shape[0]
    d = ad.sub(cmp, ref)
    return ad.div(ad.sum_(ad.square(d)), float(batch))


def centering_matrix(batch: int) -> np.ndarray:
    return np.eye(batch) - np.ones((batch, batch)) / batch


def cka_loss(ref_feats: np.ndarray, cmp_feats):
    """1 - centered kernel alignment between feature matrices.

    Alignment is ||F^T H Fhat||_F^2 / (||F^T H F||_F ||Fhat^T H Fhat||_F)
    with H the centering matrix. A vanishing denominator (constant
    features) returns the constant loss 1.0.
    """
    ref = np.asarray(ref_feats, dtype=np.float64)
    if ref.ndim != 2 or ref.shape[0] < 2:
        raise ValueError("expected a (batch >= 2, features) array")
    batch = ref.shape[0]
    h = centering_matrix(batch)
    ref_th = ref.T @ h                       # constant (features x batch)
    den_ref = float(np.linalg.norm(ref_th @ ref))
    cross = ad.matmul(ref_th, cmp_feats)
    cmp_t = ad.transpose(cmp_feats)
    gram_cmp = ad.matmul(ad.matmul(cmp_t, h), cmp_feats)
    den_cmp_sq = ad.sum_(ad.square(gram_cmp))
    den_cmp_val = float(np.sqrt(max(float(ad._np(den_cmp_sq)), 0.0)))
    if den_ref * den_cmp_val < CKA_DEGENERATE_TOL:
        # Constant loss, zero gradient: nothing to align against.
        return 1.0
    num = ad.sum_(ad.square(cross))
    den = ad.mul(ad.sqrt(den_cmp_sq), den_ref)
    return ad.sub(1.0, ad.div(num, den))


def preservation_loss(kind: str, ref: np.ndarray, cmp,
                      temperature: float = 4.0):
    """Dispatch to one of the three preservation losses by name."""
    if kind == "kl":
        return kl_loss(ref, cmp, temperature=temperature)
    if kind == "mse":
        return mse_loss(ref, cmp)
    if kind == "cka":
        return cka_loss(ref, cmp)
    raise ValueError(f"unknown preservation loss {kind!r}")
