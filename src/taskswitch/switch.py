"""Binary task switches: the 1-bit case of the quantized sparse module.

A switch replaces a module's task vector by scale * (mask * polarity): a
width-1 CompressedModule whose ranges of 2.0 put the two bin centers at
exactly -1 and +1, so the bins carry the polarity of the support. The
scale is chosen so the l2 norm over the masked positions is preserved
exactly; everything else is thrown away.
"""

from __future__ import annotations

import math

import numpy as np

from .training import CompressedModule, CompressedTaskVector
from .vectors import TaskVector, sign_quantile

SWITCH_RANGE = 2.0   # width 1 over [-2, 2]: bin centers -1 and +1


def pulse_mask(v: np.ndarray, alpha: float) -> np.ndarray:
    """Impulse activation: keep the strongest (1-alpha) share of each sign.

    mask_j = 1 iff v_j > gamma_+ or v_j < gamma_-, with the thresholds taken
    as nearest-rank alpha-quantiles of the positive and negative classes
    separately. Zeros are never activated.
    """
    v = np.asarray(v, dtype=np.float64)
    gamma_pos = sign_quantile(v, alpha, "+")
    gamma_neg = sign_quantile(v, alpha, "-")
    return (v > gamma_pos) | (v < gamma_neg)


def switch_scale(v: np.ndarray, mask: np.ndarray) -> float:
    """Norm-preserving knob: ||v * mask||_2 / sqrt(nnz(mask)); 0 if empty."""
    nnz = int(np.count_nonzero(mask))
    if nnz == 0:
        return 0.0
    masked = np.asarray(v, dtype=np.float64)[np.asarray(mask, dtype=bool)]
    return float(np.linalg.norm(masked) / math.sqrt(nnz))


def build_switch(tv: TaskVector, alpha: float) -> CompressedTaskVector:
    """Compress every module of a task vector into a binary switch."""
    mods = []
    for name, v in tv.modules:
        mask = pulse_mask(v, alpha)
        support = np.flatnonzero(mask)
        mods.append((name, CompressedModule(
            length=v.size, support=support,
            bins=(v[support] > 0.0).astype(np.int64), bit_width=1,
            range_neg=SWITCH_RANGE, range_pos=SWITCH_RANGE,
            scale=switch_scale(v, mask))))
    return CompressedTaskVector(tv.task_id, mods)
