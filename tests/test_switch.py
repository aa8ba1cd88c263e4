"""Binary switches: pulse masks, polarity bins, norm-preserving scale."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taskswitch import (
    ParamSet,
    StructureError,
    TaskVector,
    add,
    build_switch,
    materialize,
    pulse_mask,
    switch_scale,
)


class TestPulseMask:
    def test_hand_example(self):
        # alpha = 0.5 on [0.1, -0.2, 0.3, -0.4, 0.5]: thresholds 0.1 and
        # -0.2 (see the quantile tests), strict comparison keeps the top
        # two positives and the one stronger negative.
        v = np.array([0.1, -0.2, 0.3, -0.4, 0.5])
        np.testing.assert_array_equal(
            pulse_mask(v, 0.5), [False, False, True, True, True])

    def test_alpha_zero_keeps_all_nonzero(self):
        v = np.array([0.3, 0.0, -0.2, 0.0, 1.0])
        np.testing.assert_array_equal(
            pulse_mask(v, 0.0), v != 0.0)

    def test_alpha_one_keeps_nothing(self):
        v = np.array([0.3, -0.2, 1.0, -4.0])
        assert not pulse_mask(v, 1.0).any()

    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(-5, 5, allow_nan=False)),
           st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_zeros_never_fire(self, v, alpha):
        mask = pulse_mask(v, alpha)
        assert not mask[v == 0.0].any()

    def test_one_sided_vector(self):
        v = np.array([0.5, 1.5, 2.5, 3.5])
        np.testing.assert_array_equal(
            pulse_mask(v, 0.5), [False, False, True, True])


class TestScale:
    def test_hand_example(self):
        # tau = [0.8, -0.1, 0, -0.6, 0.3], alpha=0.5 -> mask keeps 0.8 and
        # -0.6; beta = sqrt((0.64 + 0.36)/2) = sqrt(1/2).
        tau = np.array([0.8, -0.1, 0.0, -0.6, 0.3])
        mask = pulse_mask(tau, 0.5)
        np.testing.assert_array_equal(mask, [True, False, False, True, False])
        assert switch_scale(tau, mask) == pytest.approx(
            0.7071067811865476, rel=1e-15)

    def test_empty_mask_gives_zero(self):
        assert switch_scale(np.array([1.0, 2.0]), np.zeros(2, bool)) == 0.0

    @given(hnp.arrays(np.float64, st.integers(1, 128),
                      elements=st.floats(-10, 10, allow_nan=False)),
           st.floats(0.0, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_norm_preserved_over_the_mask(self, v, alpha):
        mask = pulse_mask(v, alpha)
        beta = switch_scale(v, mask)
        nnz = int(mask.sum())
        recon = beta * np.where(v > 0, 1.0, -1.0) * mask
        assert np.linalg.norm(recon) == pytest.approx(
            np.linalg.norm(v[mask]), rel=1e-12, abs=1e-12)
        if nnz:
            assert beta * np.sqrt(nnz) == pytest.approx(
                np.linalg.norm(v[mask]), rel=1e-12)


class TestBuildSwitch:
    def test_polarity_maps_zeros_negative(self):
        tv = TaskVector("t", [("a", [0.5, 0.0, -0.5])])
        sw = build_switch(tv, alpha=0.0)
        mod = sw.modules[0][1]
        # The zero never fires, so no polarity is stored for it; +0.5 and
        # -0.5 land in the +1 and -1 bins of the width-1 quantizer.
        np.testing.assert_array_equal(mod.support, [0, 2])
        np.testing.assert_array_equal(mod.bins, [1, 0])
        np.testing.assert_array_equal(mod.quant_spec().centers(), [-1.0, 1.0])

    def test_all_zero_module(self):
        tv = TaskVector("t", [("a", np.zeros(4))])
        sw = build_switch(tv, alpha=0.5)
        mod = sw.modules[0][1]
        assert mod.scale == 0.0
        assert mod.nnz == 0
        np.testing.assert_array_equal(mod.final_values(), np.zeros(4))

    def test_uniform_magnitude_vector_is_a_fixed_point(self):
        # c * signs is exactly representable: the switch reproduces it.
        tau = 0.7 * np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        tv = TaskVector("t", [("a", tau)])
        sw = build_switch(tv, alpha=0.0)
        np.testing.assert_allclose(
            sw.to_vector().modules[0][1], tau, rtol=1e-15)

    def test_names_preserved(self):
        tv = TaskVector("t", [("a", [1.0]), ("b", [2.0])])
        assert build_switch(tv, 0.0).names == ["a", "b"]


class TestApplySwitch:
    def test_matches_vector_addition(self):
        rng = np.random.default_rng(0)
        base = ParamSet([("a", rng.normal(size=6)), ("b", rng.normal(size=3))])
        tv = TaskVector("t", [("a", rng.normal(size=6)),
                              ("b", rng.normal(size=3))])
        sw = build_switch(tv, alpha=0.4)
        direct = materialize(base, [sw], [1.3])
        via_vector = add(base, sw.to_vector(), weight=1.3)
        for (_, va), (_, vb) in zip(direct.modules, via_vector.modules):
            np.testing.assert_allclose(va, vb, rtol=1e-15)

    def test_alignment_checked(self):
        base = ParamSet([("a", np.ones(3))])
        sw = build_switch(TaskVector("t", [("b", np.ones(3))]), 0.0)
        with pytest.raises(StructureError):
            materialize(base, [sw], [1.0])
        sw2 = build_switch(TaskVector("t", [("a", np.ones(4))]), 0.0)
        with pytest.raises(StructureError):
            materialize(base, [sw2], [1.0])
