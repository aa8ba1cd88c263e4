"""Optimizers and the global gradient clip."""

import numpy as np
import pytest

from taskswitch.optim import Adam, Sgd, clip_global_norm


class TestAdam:
    def test_first_step_moves_by_nearly_lr_signs(self):
        # With bias correction, m_hat = g and v_hat = g*g on step one, so
        # the update is lr * g/(|g| + eps) ~= lr * sign(g).
        value = np.array([1.0, -2.0, 3.0])
        grad = np.array([0.5, -0.1, 2.0])
        out = Adam().step(value, grad, lr=0.1)
        np.testing.assert_allclose(out, value - 0.1 * np.sign(grad),
                                   rtol=1e-6)

    def test_hand_rolled_two_steps(self):
        opt = Adam()
        value = np.array([1.0])
        m = v = np.zeros(1)
        cur = value
        for t, g in enumerate((np.array([0.3]), np.array([-0.2])), start=1):
            cur = opt.step(cur, g, lr=0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            value = value - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(cur, value, rtol=1e-12)

    def test_separate_moments_per_instance(self):
        a, b = Adam(), Adam()
        a1 = a.step(np.zeros(1), np.array([1.0]), lr=1.0)
        b1 = b.step(np.zeros(1), np.array([-1.0]), lr=1.0)
        assert a1[0] == pytest.approx(-1.0, rel=1e-6)
        assert b1[0] == pytest.approx(1.0, rel=1e-6)

    def test_zero_gradient_is_a_fixed_point(self):
        out = Adam().step(np.array([5.0]), np.zeros(1), lr=0.1)
        np.testing.assert_allclose(out, [5.0])


class TestSgd:
    def test_plain_step(self):
        out = Sgd().step(np.array([1.0, 2.0]), np.array([0.5, -1.0]), lr=0.1)
        np.testing.assert_allclose(out, [0.95, 2.1])


class TestClip:
    def test_under_threshold_untouched(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}  # norm 5
        out = clip_global_norm(grads, 10.0)
        assert out is grads

    def test_rescales_jointly(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}  # norm 5
        out = clip_global_norm(grads, 1.0)
        total = np.sqrt(sum(float(np.sum(g * g)) for g in out.values()))
        assert total == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(out["a"], [0.6])
        np.testing.assert_allclose(out["b"], [0.8])

    def test_zero_gradients_pass_through(self):
        grads = {"a": np.zeros(3)}
        out = clip_global_norm(grads, 1.0)
        np.testing.assert_array_equal(out["a"], np.zeros(3))
