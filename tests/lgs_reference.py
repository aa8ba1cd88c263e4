"""Per-module gating (LGS) and bit-width (BAS) formulas, one module at a
time: the oracle that the stacked objective and hardening in
`taskswitch.training` are checked against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from taskswitch import autodiff as ad
from taskswitch.bitwidth import CANDIDATE_WIDTHS, QuantSpec, quantize
from taskswitch.training import EPS_RANGE, INIT_SCALE_LOGIT
from taskswitch.vectors import SignedBounds, signed_bounds
import composed_reference as cr
from composed_reference import squash


@dataclass
class GateParams:
    """Per-module learnables: two threshold logits and the scale logit."""

    threshold_pos: float = 0.0
    threshold_neg: float = 0.0
    scale_logit: float = INIT_SCALE_LOGIT


@dataclass
class GateOutput:
    soft_mask: object        # M, unscaled, ndarray or Var
    scaled_mask: object      # softplus(scale_logit) * M
    temperature: float


def map_threshold(logit, bounds: SignedBounds, sign: str):
    """Place a threshold magnitude inside one sign class's magnitude range.

    Returns (threshold, range_width). The threshold is
    v_min + squash(logit) * (v_max - v_min), always strictly inside the
    open interval for finite logits.
    """
    if sign == "+":
        if not bounds.has_pos:
            raise ValueError("positive class is empty")
        lo, hi = bounds.pos_min, bounds.pos_max
    elif sign == "-":
        if not bounds.has_neg:
            raise ValueError("negative class is empty")
        lo, hi = bounds.neg_min, bounds.neg_max
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    width = hi - lo
    return cr.add(lo, cr.mul(squash(logit), width)), width


def soft_gate(v: np.ndarray, params, temperature: float,
              bounds: SignedBounds | None = None) -> GateOutput:
    """Soft membership of every element in the retained set.

    M_j = sigmoid((v_j - t_+)/(rho * r_+)) + sigmoid((-t_- - v_j)/(rho * r_-))
    with one term per populated sign class; an empty class contributes
    nothing. params may carry plain floats or tape Vars.
    """
    v = np.asarray(v, dtype=np.float64)
    if bounds is None:
        bounds = signed_bounds(v)
    rho = float(temperature)
    terms = []
    if bounds.has_pos:
        t_pos, r_pos = map_threshold(params.threshold_pos, bounds, "+")
        denom = rho * max(r_pos, EPS_RANGE)
        terms.append(cr.sigmoid(cr.div(cr.sub(v, t_pos), denom)))
    if bounds.has_neg:
        t_neg, r_neg = map_threshold(params.threshold_neg, bounds, "-")
        denom = rho * max(r_neg, EPS_RANGE)
        terms.append(cr.sigmoid(cr.div(cr.sub(cr.mul(t_neg, -1.0), v), denom)))
    if not terms:
        soft = np.zeros_like(v)
    elif len(terms) == 1:
        soft = terms[0]
    else:
        soft = cr.add(terms[0], terms[1])
    scaled = cr.mul(cr.softplus(params.scale_logit), soft)
    return GateOutput(soft_mask=soft, scaled_mask=scaled, temperature=rho)


def sparsity_loss(soft_masks: list) -> object:
    """Mean soft activation over all modules: sum ||M^l||_1 / sum n_l.

    Uses the unscaled masks, so the scale knob cannot cheat the objective.
    """
    total_n = sum(ad._np(m).size for m in soft_masks)
    acc = None
    for m in soft_masks:
        s = cr.sum_(m)
        acc = s if acc is None else cr.add(acc, s)
    return cr.div(acc, float(total_n))


def harden(soft_mask) -> np.ndarray:
    """Final binary mask: strictly greater than 1/2 survives."""
    return ad._np(soft_mask) > 0.5


def ste(x, forward_values: np.ndarray, pass_mask: np.ndarray):
    """Straight-through node: fixed forward values, masked identity backward.

    forward_values must be computed from the current value of x by the
    caller; pass_mask is 1 where the gradient flows through unchanged.
    """
    fv = np.asarray(forward_values, dtype=np.float64)
    pm = np.asarray(pass_mask, dtype=np.float64)
    return cr._unary(x, lambda v: fv, lambda g, v, out: g * pm)


def quantize_ste(v, spec: QuantSpec):
    """Quantize with a straight-through gradient w.r.t. the input.

    Backward is the identity inside [-range_neg, range_pos] and zero
    outside. With a plain array input this is just quantize().
    """
    vv = ad._np(v)
    q = quantize(vv, spec)
    if not isinstance(v, ad.Var):
        return q
    inside = (vv >= -spec.range_neg) & (vv <= spec.range_pos)
    return ste(v, q, inside)


@dataclass
class BitLogits:
    """Learnable preference over CANDIDATE_WIDTHS plus its softmax temperature."""

    values: object            # length-4 array or Var
    temperature: float = 1.0


def bit_weights(logits: BitLogits):
    """softmax(values / temperature) over the four candidates."""
    return ad.softmax(cr.div(logits.values, float(logits.temperature)))


def mixed_quantize(v, logits: BitLogits, specs: list[QuantSpec] | None = None):
    """Softmax-weighted blend of the four candidate quantizations.

    v may be a tape Var, in which case each candidate passes through the
    straight-through quantizer; the weight path is smooth either way.
    """
    vv = ad._np(v)
    if specs is None:
        specs = [QuantSpec.from_values(vv, b) for b in CANDIDATE_WIDTHS]
    if len(specs) != len(CANDIDATE_WIDTHS):
        raise ValueError("one QuantSpec per candidate width required")
    w = bit_weights(logits)
    out = None
    for i, spec in enumerate(specs):
        q = quantize_ste(v, spec) if isinstance(v, ad.Var) else quantize(vv, spec)
        term = cr.mul(cr.take(w, i), q)
        out = term if out is None else cr.add(out, term)
    return out


def mean_bitwidth(logits: BitLogits):
    """Expected width under the softmax weights."""
    return cr.sum_(cr.mul(bit_weights(logits), np.asarray(CANDIDATE_WIDTHS,
                                                          dtype=np.float64)))


def bit_regularizer(all_logits: list[BitLogits]):
    """sum_l mean_bitwidth / (L * max width): lives in [1/8, 1]."""
    n_mod = len(all_logits)
    acc = None
    for lg in all_logits:
        m = mean_bitwidth(lg)
        acc = m if acc is None else cr.add(acc, m)
    return cr.div(acc, float(n_mod * max(CANDIDATE_WIDTHS)))


def select_bitwidth(logits: BitLogits) -> int:
    """Final width: argmax logit, ties resolved toward the smaller width."""
    vals = ad._np(logits.values)
    return CANDIDATE_WIDTHS[int(np.argmax(vals))]
