"""Uniform asymmetric-range quantizers.

A module is quantized against the candidate widths {1, 2, 4, 8}; training
blends the four candidates and keeps one width per module (see training).
The quantizer ranges come from the raw task vector so bins do not move
while the gate trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
