"""Asymmetric-range quantizers and differentiable bit-width selection.

A module is quantized against candidate widths {1, 2, 4, 8}; a softmax over
four logits blends the candidates during training and the argmax is kept at
the end. The quantizer ranges come from the raw task vector so bins do not
move while the gate trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .vectors import signed_bounds

CANDIDATE_WIDTHS = (1, 2, 4, 8)


@dataclass(frozen=True)
class QuantSpec:
    """One uniform asymmetric quantizer: bit width and signed ranges."""

    bit_width: int
    range_neg: float   # magnitude of the most negative representable input
    range_pos: float

    def __post_init__(self):
        if not 1 <= self.bit_width <= 15:
            raise ValueError(f"bit width out of range: {self.bit_width}")
        if self.range_neg < 0 or self.range_pos < 0:
            raise ValueError("ranges must be non-negative")

    @property
    def levels(self) -> int:
        return 1 << self.bit_width

    @property
    def step(self) -> float:
        return (self.range_pos + self.range_neg) / self.levels

    @property
    def degenerate(self) -> bool:
        return self.step == 0.0

    def centers(self) -> np.ndarray:
        """All representable values (bin centers), index order."""
        idx = np.arange(self.levels, dtype=np.float64)
        return -self.range_neg + (idx + 0.5) * self.step

    @classmethod
    def from_values(cls, v: np.ndarray, bit_width: int) -> "QuantSpec":
        b = signed_bounds(v)
        return cls(bit_width, b.neg_max, b.pos_max)


def quantize_indices(v: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Bin index per element: clamp(floor((v + r_neg)/step), 1, 2^b) - 1."""
    v = np.asarray(v, dtype=np.float64)
    if spec.degenerate:
        return np.zeros(v.shape, dtype=np.int64)
    raw = np.floor((v + spec.range_neg) / spec.step)
    return np.clip(raw, 1, spec.levels).astype(np.int64) - 1


def quantize(v: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Nearest representable value per element (plain arrays only)."""
    if spec.degenerate:
        return np.full(np.asarray(v, dtype=np.float64).shape, -spec.range_neg)
    return spec.centers()[quantize_indices(v, spec)]


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
    return ad.ste(v, q, inside)


@dataclass
class BitLogits:
    """Learnable preference over CANDIDATE_WIDTHS plus its softmax temperature."""

    values: object            # length-4 array or Var
    temperature: float = 1.0


def bit_weights(logits: BitLogits):
    """softmax(values / temperature) over the four candidates."""
    return ad.softmax(ad.div(logits.values, float(logits.temperature)))


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
        term = ad.mul(ad.take(w, i), q)
        out = term if out is None else ad.add(out, term)
    return out


def mean_bitwidth(logits: BitLogits):
    """Expected width under the softmax weights."""
    return ad.sum_(ad.mul(bit_weights(logits), np.asarray(CANDIDATE_WIDTHS,
                                                          dtype=np.float64)))


def bit_regularizer(all_logits: list[BitLogits]):
    """sum_l mean_bitwidth / (L * max width): lives in [1/8, 1]."""
    n_mod = len(all_logits)
    acc = None
    for lg in all_logits:
        m = mean_bitwidth(lg)
        acc = m if acc is None else ad.add(acc, m)
    return ad.div(acc, float(n_mod * max(CANDIDATE_WIDTHS)))


def select_bitwidth(logits: BitLogits) -> int:
    """Final width: argmax logit, ties resolved toward the smaller width."""
    vals = ad._np(logits.values)
    return CANDIDATE_WIDTHS[int(np.argmax(vals))]

