"""Asymmetric quantizers and differentiable bit-width selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskswitch import autodiff as ad
from taskswitch import (
    CANDIDATE_WIDTHS,
    QuantSpec,
    bit_regularizer,
    bit_weights,
    mean_bitwidth,
    mixed_quantize,
    quantize,
    quantize_indices,
    select_bitwidth,
)
from taskswitch.bitwidth import BitLogits, quantize_ste


def max_quant_error(spec: QuantSpec) -> float:
    """Tight bound on |quantize(x) - x| over the representable range.

    The floor-then-shift index rule reconstructs interior values at the
    center one bin below, so the error approaches 1.5 * step just under
    the interior bin edges (it stays within step/2 only in the outermost
    half-bins).
    """
    return 1.5 * spec.step if not spec.degenerate else 0.0


class TestQuantSpec:
    def test_levels_step_centers(self):
        spec = QuantSpec(2, 1.0, 1.0)
        assert spec.levels == 4
        assert spec.step == pytest.approx(0.5)
        np.testing.assert_allclose(spec.centers(),
                                   [-0.75, -0.25, 0.25, 0.75])

    def test_bit_width_bounds(self):
        QuantSpec(1, 0.0, 1.0)
        QuantSpec(15, 1.0, 1.0)
        with pytest.raises(ValueError):
            QuantSpec(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            QuantSpec(16, 1.0, 1.0)

    def test_negative_ranges_rejected(self):
        with pytest.raises(ValueError):
            QuantSpec(2, -0.1, 1.0)

    def test_degenerate_iff_zero_width(self):
        assert QuantSpec(3, 0.0, 0.0).degenerate
        assert not QuantSpec(3, 0.0, 0.1).degenerate

    def test_from_values_takes_signed_maxima(self):
        spec = QuantSpec.from_values(np.array([0.5, -0.2, 1.5, -0.9]), 4)
        assert spec.range_neg == pytest.approx(0.9)
        assert spec.range_pos == pytest.approx(1.5)


class TestQuantize:
    def test_hand_example_symmetric(self):
        # 2 bits over [-1, 1]: step 0.5, centers -0.75 -0.25 0.25 0.75.
        # floor((v+1)/0.5) clamped to [1,4] minus one gives bins 0, 2, 3.
        spec = QuantSpec(2, 1.0, 1.0)
        np.testing.assert_allclose(
            quantize(np.array([-1.0, 0.5, 1.0]), spec), [-0.75, 0.25, 0.75])

    def test_floor_rule_biases_downward(self):
        # One bit over [-0.6, 0.6]: both small magnitudes land in the
        # lower center because the index rule floors before shifting.
        spec = QuantSpec(1, 0.6, 0.6)
        np.testing.assert_allclose(
            quantize(np.array([-0.6, -0.01, 0.01, 0.6]), spec),
            [-0.3, -0.3, -0.3, 0.3])

    def test_out_of_range_inputs_clamp_to_end_bins(self):
        spec = QuantSpec(2, 1.0, 1.0)
        np.testing.assert_allclose(
            quantize(np.array([-9.0, 9.0]), spec), [-0.75, 0.75])

    def test_degenerate_spec_collapses_to_zero(self):
        spec = QuantSpec(4, 0.0, 0.0)
        np.testing.assert_array_equal(
            quantize(np.array([1.0, -2.0]), spec), [0.0, 0.0])
        np.testing.assert_array_equal(
            quantize_indices(np.array([1.0, -2.0]), spec), [0, 0])

    @given(st.integers(1, 8), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_error_bound_holds(self, b, rn, rp, seed):
        spec = QuantSpec(b, rn, rp)
        rng = np.random.default_rng(seed)
        v = rng.uniform(-rn, rp, size=64)
        q = quantize(v, spec)
        assert np.max(np.abs(q - v)) <= max_quant_error(spec) + 1e-12

    def test_quantizer_is_not_idempotent_on_interior_centers(self):
        # The clamp-floor rule maps an exact interior center one bin down
        # (floor(I + 0.5) = I, then the -1 shift). Anything that needs to
        # recover bin indices from center values must therefore use the
        # rounding inverse, not this quantizer; the codec does.
        spec = QuantSpec(2, 1.0, 1.0)
        assert quantize(np.array([0.25]), spec)[0] == pytest.approx(-0.25)
        np.testing.assert_array_equal(
            quantize_indices(spec.centers(), spec), [0, 0, 1, 2])

    def test_error_bound_is_tight(self):
        spec = QuantSpec(2, 1.0, 1.0)
        v = np.linspace(-1.0, 1.0, 200001)
        worst = np.max(np.abs(quantize(v, spec) - v))
        assert worst <= max_quant_error(spec)
        assert worst > 0.99 * max_quant_error(spec)

    def test_indices_cover_full_range(self):
        spec = QuantSpec(3, 1.0, 1.0)
        idx = quantize_indices(np.linspace(-1, 1, 1000), spec)
        assert idx.min() == 0 and idx.max() == spec.levels - 1


class TestSte:
    def test_plain_array_passthrough(self):
        spec = QuantSpec(2, 1.0, 1.0)
        v = np.array([0.3, -0.8])
        np.testing.assert_array_equal(quantize_ste(v, spec),
                                      quantize(v, spec))

    def test_gradient_is_inside_indicator(self):
        spec = QuantSpec(2, 1.0, 1.0)
        v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        tape = ad.Tape()
        x = tape.var(v)
        tape.backward(ad.sum_(quantize_ste(x, spec)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])


class TestBitSelection:
    def test_uniform_logits_give_uniform_weights(self):
        w = ad._np(bit_weights(BitLogits(np.zeros(4))))
        np.testing.assert_allclose(w, np.full(4, 0.25), rtol=1e-12)

    def test_weights_follow_softmax_with_temperature(self):
        logits = np.array([1.0, 3.0, 2.0, 0.0])
        for temp in (1.0, 0.25):
            z = logits / temp
            e = np.exp(z - z.max())
            np.testing.assert_allclose(
                ad._np(bit_weights(BitLogits(logits, temperature=temp))),
                e / e.sum(), rtol=1e-12)

    def test_mean_bitwidth_uniform(self):
        assert float(ad._np(mean_bitwidth(BitLogits(np.zeros(4))))) == \
            pytest.approx((1 + 2 + 4 + 8) / 4)

    def test_regularizer_bounds(self):
        low = [BitLogits(np.array([40.0, 0.0, 0.0, 0.0]))] * 3
        high = [BitLogits(np.array([0.0, 0.0, 0.0, 40.0]))] * 3
        assert float(ad._np(bit_regularizer(low))) == pytest.approx(1 / 8)
        assert float(ad._np(bit_regularizer(high))) == pytest.approx(1.0)

    @given(st.lists(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_regularizer_stays_in_range(self, rows):
        logits = [BitLogits(np.asarray(r)) for r in rows]
        val = float(ad._np(bit_regularizer(logits)))
        assert 1 / 8 - 1e-9 <= val <= 1.0 + 1e-9

    def test_argmax_ties_resolve_to_smaller_width(self):
        assert select_bitwidth(BitLogits(np.array([2.0, 2.0, 0.0, 0.0]))) == 1
        assert select_bitwidth(BitLogits(np.array([0.0, 1.0, 1.0, 1.0]))) == 2
        assert select_bitwidth(BitLogits(np.array([0.0, 0.0, 0.0, 1.0]))) == 8


class TestMixedQuantize:
    def test_uniform_blend_matches_mean_of_candidates(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=32)
        specs = [QuantSpec.from_values(v, b) for b in CANDIDATE_WIDTHS]
        out = ad._np(mixed_quantize(v, BitLogits(np.zeros(4)), specs))
        manual = np.mean([quantize(v, s) for s in specs], axis=0)
        np.testing.assert_allclose(out, manual, rtol=1e-12)

    def test_cold_softmax_selects_single_candidate(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=16)
        logits = BitLogits(np.array([0.0, 2.0, 1.0, -1.0]),
                           temperature=1e-6)
        specs = [QuantSpec.from_values(v, b) for b in CANDIDATE_WIDTHS]
        out = ad._np(mixed_quantize(v, logits, specs))
        chosen = quantize(v, specs[1])  # width 2 holds the top logit
        np.testing.assert_allclose(out, chosen, atol=1e-6)
        assert select_bitwidth(logits) == 2

    def test_gradient_splits_by_inside_masks(self):
        # d(mixed)/dv sums w_i over the candidates whose range contains v.
        v = np.array([-0.5, 0.1, 0.9])
        specs = [QuantSpec(b, 0.6, 0.6) for b in CANDIDATE_WIDTHS]
        logits = BitLogits(np.array([0.3, -0.2, 0.5, 0.1]))
        w = ad._np(bit_weights(logits))
        tape = ad.Tape()
        x = tape.var(v)
        tape.backward(ad.sum_(mixed_quantize(x, logits, specs)))
        inside = (np.abs(v) <= 0.6).astype(float)
        np.testing.assert_allclose(x.grad, w.sum() * inside, rtol=1e-12)

    def test_spec_count_validated(self):
        with pytest.raises(ValueError):
            mixed_quantize(np.ones(3), BitLogits(np.zeros(4)),
                           [QuantSpec(1, 1, 1)])
