"""Plain-numpy optimizers for the handful of learnables in this package."""

from __future__ import annotations

import numpy as np

# Adam's moment decays and denominator guard: the fixed training recipe
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction; one slot per named parameter."""

    def __init__(self):
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def start_step(self) -> None:
        self._t += 1

    def update(self, key: str, value: np.ndarray, grad: np.ndarray,
               lr: float) -> np.ndarray:
        """Return the updated value; call start_step() once per optimization step."""
        if self._t < 1:
            raise RuntimeError("start_step() must be called before update()")
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(value)
            self._v[key] = np.zeros_like(value)
        v = self._v[key]
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * grad * grad
        self._m[key] = m
        self._v[key] = v
        m_hat = m / (1.0 - BETA1 ** self._t)
        v_hat = v / (1.0 - BETA2 ** self._t)
        return value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class Sgd:
    def start_step(self) -> None:
        pass

    def update(self, key: str, value: np.ndarray, grad: np.ndarray,
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
