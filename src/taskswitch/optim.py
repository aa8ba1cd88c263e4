"""Plain-numpy optimizers, one instance per parameter array."""

from __future__ import annotations

import numpy as np

# Adam's moment decays and denominator guard: the fixed training recipe
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction over one parameter array."""

    def __init__(self):
        self._m = self._v = 0.0
        self._t = 0

    def step(self, value: np.ndarray, grad: np.ndarray,
             lr: float) -> np.ndarray:
        """Return the updated value; each call is one optimization step."""
        self._t += 1
        self._m = BETA1 * self._m + (1.0 - BETA1) * grad
        self._v = BETA2 * self._v + (1.0 - BETA2) * grad * grad
        m_hat = self._m / (1.0 - BETA1 ** self._t)
        v_hat = self._v / (1.0 - BETA2 ** self._t)
        return value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class Sgd:
    def step(self, value: np.ndarray, grad: np.ndarray,
             lr: float) -> np.ndarray:
        return value - lr * grad


def clip_global_norm(grads: dict[str, np.ndarray],
                     max_norm: float) -> dict[str, np.ndarray]:
    """Rescale all gradients together if their joint l2 norm exceeds max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total <= max_norm or total == 0.0:
        return grads
    factor = max_norm / total
    return {k: g * factor for k, g in grads.items()}
