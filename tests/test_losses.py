"""Preservation losses: temperature KL, batch MSE, centered kernel alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskswitch import autodiff as ad
from taskswitch import (
    DEFAULT_LAMBDA,
    LAMBDA_PRESETS,
    cka_loss,
    kl_loss,
    mse_loss,
    preservation_loss,
)
from taskswitch.losses import loss_from_side


class TestKl:
    def test_frozen_example(self):
        # Two swapped-logit rows at T=4. Independently computed with
        # scipy.special.softmax / rel_entr: (16/2) * sum rel_entr(q, p).
        ref = np.array([[2.0, 0.0], [0.0, 2.0]])
        cmp_ = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert float(ad._np(kl_loss(ref, cmp_))) == pytest.approx(
            1.959349299229673, rel=1e-12)

    def test_scipy_cross_check(self):
        from scipy.special import rel_entr, softmax

        rng = np.random.default_rng(0)
        ref = rng.normal(size=(8, 5)) * 3
        cmp_ = rng.normal(size=(8, 5)) * 3
        for temp in (1.0, 4.0, 10.0):
            q = softmax(ref / temp, axis=1)
            p = softmax(cmp_ / temp, axis=1)
            want = (temp * temp / ref.shape[0]) * rel_entr(q, p).sum()
            got = float(ad._np(kl_loss(ref, cmp_, temperature=temp)))
            assert got == pytest.approx(want, rel=1e-10)

    def test_self_comparison_is_zero(self):
        logits = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        assert float(ad._np(kl_loss(logits, logits))) == pytest.approx(
            0.0, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=(4, 3)) * 5
        cmp_ = rng.normal(size=(4, 3)) * 5
        assert float(ad._np(kl_loss(ref, cmp_))) >= -1e-12

    def test_gradient_flows_to_comparison_logits(self):
        ref = np.array([[1.0, 0.0], [0.0, 1.0]])
        tape = ad.Tape()
        cmp_ = tape.var(np.array([[0.2, 0.1], [0.3, -0.2]]))
        tape.backward(kl_loss(ref, cmp_))
        assert cmp_.grad is not None and np.all(np.isfinite(cmp_.grad))
        # Softmax gradients sum to zero along the class axis.
        np.testing.assert_allclose(cmp_.grad.sum(axis=1), 0.0, atol=1e-12)

    def test_requires_batch_matrix(self):
        with pytest.raises(ValueError):
            kl_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


class TestMse:
    def test_hand_example(self):
        # Row squared distances 1 and 13, batch 2 -> (1 + 13)/2.
        ref = np.array([[1.0, 2.0], [3.0, 4.0]])
        cmp_ = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert float(ad._np(mse_loss(ref, cmp_))) == pytest.approx(7.0)

    def test_self_is_zero_and_gradient_is_scaled_residual(self):
        ref = np.array([[0.5, -0.5]])
        assert float(ad._np(mse_loss(ref, ref))) == 0.0
        tape = ad.Tape()
        cmp_ = tape.var(np.array([[1.5, 0.5]]))
        tape.backward(mse_loss(ref, cmp_))
        np.testing.assert_allclose(cmp_.grad, 2.0 * (np.array([[1.5, 0.5]])
                                                     - ref))


class TestCka:
    F = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0]])
    G = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-1.0, 1.0]])

    def test_frozen_example(self):
        # Verified against the trace form tr(KHLH)/sqrt(...) with linear
        # kernels K = FF^T, L = GG^T.
        assert float(ad._np(cka_loss(self.F, self.G))) == pytest.approx(
            0.32302774112018184, rel=1e-9)

    def test_matches_hsic_trace_form(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 3))
        m = f.shape[0]
        h = np.eye(m) - np.ones((m, m)) / m
        k, l = f @ f.T, g @ g.T
        hsic = lambda a, b: np.trace(a @ h @ b @ h)  # noqa: E731
        want = 1.0 - hsic(k, l) / np.sqrt(hsic(k, k) * hsic(l, l))
        assert float(ad._np(cka_loss(f, g))) == pytest.approx(want,
                                                              rel=1e-10)

    def test_self_alignment_is_zero(self):
        assert float(ad._np(cka_loss(self.F, self.F))) == pytest.approx(
            0.0, abs=1e-12)

    def test_invariant_to_rotation_and_isotropic_scale(self):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        transformed = 3.5 * self.F @ rot
        assert float(ad._np(cka_loss(self.F, transformed))) == \
            pytest.approx(0.0, abs=1e-10)

    def test_constant_comparison_features_give_loss_one(self):
        assert cka_loss(self.F, np.ones((4, 2))) == 1.0

    def test_constant_reference_features_give_loss_one(self):
        assert cka_loss(np.ones((4, 2)), self.G) == 1.0

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            cka_loss(np.ones((1, 3)), np.ones((1, 3)))

    def test_gradient_flows(self):
        tape = ad.Tape()
        g = tape.var(self.G)
        tape.backward(cka_loss(self.F, g))
        assert g.grad is not None and np.all(np.isfinite(g.grad))
        assert np.any(g.grad != 0.0)


class TestDispatchAndPresets:
    def test_dispatch_matches_direct_calls(self):
        ref = np.array([[1.0, 0.0], [0.0, 2.0]])
        cmp_ = np.array([[0.5, 0.5], [1.0, 1.0]])
        assert float(ad._np(preservation_loss("kl", ref, cmp_))) == \
            pytest.approx(float(ad._np(kl_loss(ref, cmp_))))
        assert float(ad._np(preservation_loss("mse", ref, cmp_))) == \
            pytest.approx(float(ad._np(mse_loss(ref, cmp_))))
        assert float(ad._np(preservation_loss("cka", ref, cmp_))) == \
            pytest.approx(float(ad._np(cka_loss(ref, cmp_))))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            preservation_loss("huber", np.ones((2, 2)), np.ones((2, 2)))

    def test_unknown_kind_rejected_from_a_side(self):
        with pytest.raises(ValueError, match="unknown preservation loss"):
            loss_from_side("huber", (np.ones((2, 2)),), np.ones((2, 2)))

    def test_preset_tables(self):
        assert LAMBDA_PRESETS["kl"] == (0.1, 0.3, 0.5, 0.7, 0.9)
        assert LAMBDA_PRESETS["mse"] == (0.01, 0.05, 0.09, 0.13, 0.17)
        assert LAMBDA_PRESETS["cka"] == (1.0, 3.0, 5.0, 7.0, 9.0)
        assert DEFAULT_LAMBDA == {"kl": 0.3, "mse": 0.05, "cka": 3.0}
        for kind, presets in LAMBDA_PRESETS.items():
            assert DEFAULT_LAMBDA[kind] in presets
