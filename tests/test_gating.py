"""Soft gates: threshold mapping, masks, annealing, hardening."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskswitch import autodiff as ad
from taskswitch import temperature_schedule
from taskswitch.training import INIT_SCALE_LOGIT, squash
from taskswitch.vectors import signed_bounds
import composed_reference as cr
from lgs_reference import (GateParams, harden, map_threshold, soft_gate,
                           sparsity_loss)


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestSquash:
    def test_zero_maps_to_half(self):
        assert squash(0.0) == pytest.approx(0.5)

    def test_quarter_turn(self):
        # arctan(1) = pi/4, so squash(1) = 0.75 exactly.
        assert squash(1.0) == pytest.approx(0.75, rel=1e-15)

    def test_limits_pin_to_unit_interval(self):
        assert 0.0 < squash(-1e12) < 1e-10
        assert 1.0 - 1e-10 < squash(1e12) < 1.0


class TestMapThreshold:
    BOUNDS = signed_bounds(np.array([1.0, 4.0, -0.5, -2.0]))

    def test_positive_class(self):
        t, width = map_threshold(1.0, self.BOUNDS, "+")
        assert width == pytest.approx(3.0)
        assert float(t) == pytest.approx(1.0 + 0.75 * 3.0, rel=1e-15)

    def test_negative_class_uses_magnitudes(self):
        t, width = map_threshold(0.0, self.BOUNDS, "-")
        assert width == pytest.approx(1.5)
        assert float(t) == pytest.approx(0.5 + 0.5 * 1.5, rel=1e-15)

    def test_empty_class_raises(self):
        one_sided = signed_bounds(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            map_threshold(0.0, one_sided, "-")

    def test_finite_logits_stay_strictly_inside(self):
        for s in (-30.0, 0.0, 30.0):
            t, _ = map_threshold(s, self.BOUNDS, "+")
            assert 1.0 < float(t) < 4.0


class TestSoftGate:
    def test_one_sided_hand_values(self):
        # v = [1..4], zero logits: threshold = 1 + 0.5*3 = 2.5, width 3,
        # rho = 1, so M_j = sigmoid((v_j - 2.5)/3).
        v = np.array([1.0, 2.0, 3.0, 4.0])
        out = soft_gate(v, GateParams(), temperature=1.0)
        expected = [_sigmoid((x - 2.5) / 3.0) for x in v]
        np.testing.assert_allclose(ad._np(out.soft_mask), expected,
                                   rtol=1e-12)

    def test_two_sided_hand_values(self):
        # Symmetric v with both thresholds at magnitude 1.5, width 1,
        # rho = 0.5: M = sigmoid((v-1.5)/0.5) + sigmoid((-1.5-v)/0.5).
        v = np.array([-2.0, -1.0, 1.0, 2.0])
        out = soft_gate(v, GateParams(), temperature=0.5)
        hi = _sigmoid(1.0) + _sigmoid(-7.0)
        lo = _sigmoid(-1.0) + _sigmoid(-5.0)
        np.testing.assert_allclose(ad._np(out.soft_mask), [hi, lo, lo, hi],
                                   rtol=1e-12)
        np.testing.assert_array_equal(harden(out.soft_mask),
                                      [True, False, False, True])

    def test_all_zero_vector_gives_zero_mask(self):
        out = soft_gate(np.zeros(3), GateParams(), temperature=1.0)
        np.testing.assert_array_equal(ad._np(out.soft_mask), np.zeros(3))

    def test_default_scale_logit_is_identity(self):
        # softplus(log(e - 1)) = log(1 + (e-1)) = 1.
        v = np.array([0.5, -1.5, 2.0])
        out = soft_gate(v, GateParams(), temperature=1.0)
        np.testing.assert_allclose(ad._np(out.scaled_mask),
                                   ad._np(out.soft_mask), rtol=1e-14)
        assert math.log(math.e - 1.0) == INIT_SCALE_LOGIT

    def test_scale_logit_multiplies_mask(self):
        v = np.array([0.5, -1.5, 2.0])
        params = GateParams(scale_logit=5.0)
        out = soft_gate(v, params, temperature=1.0)
        factor = math.log1p(math.exp(5.0))
        np.testing.assert_allclose(
            ad._np(out.scaled_mask), factor * ad._np(out.soft_mask),
            rtol=1e-12)

    @given(st.floats(-30, 30), st.floats(-30, 30),
           st.floats(1e-6, 1.0), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_extreme_elements_always_survive_hardening(self, sp, sn, rho,
                                                       seed):
        # With a non-degenerate class range the mapped threshold is
        # strictly below the class maximum, so the strongest element of
        # each sign always hardens to True.
        rng = np.random.default_rng(seed)
        v = np.concatenate([rng.uniform(0.1, 1.0, size=5),
                            -rng.uniform(0.1, 1.0, size=5)])
        v[0], v[5] = 1.5, -1.5  # force strict class widths
        params = GateParams(threshold_pos=sp, threshold_neg=sn)
        hard = harden(soft_gate(v, params, temperature=rho).soft_mask)
        assert hard[0] and hard[5]

    def test_gradients_reach_all_three_logits(self):
        v = np.array([0.2, -0.4, 0.9, -1.3, 0.05])
        tape = ad.Tape()
        leaf = tape.var(np.array([0.1, -0.2, 0.3]))
        picks = [np.eye(3)[i] for i in range(3)]
        params = GateParams(
            threshold_pos=cr.sum_(cr.mul(leaf, picks[0])),
            threshold_neg=cr.sum_(cr.mul(leaf, picks[1])),
            scale_logit=cr.sum_(cr.mul(leaf, picks[2])))
        out = soft_gate(v, params, temperature=0.7)
        tape.backward(cr.sum_(out.scaled_mask))
        assert leaf.grad is not None
        assert np.all(np.isfinite(leaf.grad))
        assert np.all(leaf.grad != 0.0)


class TestSparsityLoss:
    def test_mean_over_total_elements(self):
        masks = [np.array([1.0, 0.5]), np.array([0.25, 0.25, 0.5])]
        assert float(sparsity_loss(masks)) == pytest.approx(0.5)

    def test_uses_unscaled_masks_by_construction(self):
        # Feeding the soft (not scaled) masks keeps the loss in [0, 1].
        v = np.array([3.0, -1.0, 0.25, 2.0])
        out = soft_gate(v, GateParams(scale_logit=50.0), temperature=1.0)
        val = float(sparsity_loss([out.soft_mask]))
        assert 0.0 <= val <= 1.0


class TestHarden:
    def test_strictly_greater_than_half(self):
        soft = np.array([0.5, 0.5000001, 0.4999999, 1.0, 0.0])
        np.testing.assert_array_equal(
            harden(soft), [False, True, False, True, False])


class TestTemperatureSchedule:
    def test_piecewise_decay_table(self):
        assert temperature_schedule(0) == 1.0
        assert temperature_schedule(9) == 1.0
        assert temperature_schedule(10) == pytest.approx(0.9)
        assert temperature_schedule(25) == pytest.approx(0.81)
        assert temperature_schedule(500) == pytest.approx(0.9 ** 50)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            temperature_schedule(-1)
