"""Flat-parameter MLP: shapes, forward pass, losses, metrics."""

import numpy as np
import pytest

from taskswitch import autodiff as ad
from taskswitch import MlpSpec, accuracy, features, forward, init_params, predict
from taskswitch.model import check_params, cross_entropy


class TestSpec:
    def test_default_shapes(self):
        spec = MlpSpec()
        assert spec.widths == (16, 32, 4)
        assert spec.module_names() == ["layer0.weight", "layer0.bias",
                                       "layer1.weight", "layer1.bias"]
        assert spec.feature_dim == 32 and spec.n_classes == 4

    def test_layers_of_the_desk_spec(self):
        assert MlpSpec().layers == (
            ("layer0.weight", "layer0.bias", 16, 32, ad.tanh),
            ("layer1.weight", "layer1.bias", 32, 4, None))

    def test_layers_of_a_four_layer_relu_spec(self):
        spec = MlpSpec((5, 9, 7, 6, 2), "relu")
        assert spec.layers == (
            ("layer0.weight", "layer0.bias", 5, 9, ad.relu),
            ("layer1.weight", "layer1.bias", 9, 7, ad.relu),
            ("layer2.weight", "layer2.bias", 7, 6, ad.relu),
            ("layer3.weight", "layer3.bias", 6, 2, None))
        assert spec.layers is spec.layers
        assert spec.module_shapes() == [
            ("layer0.weight", (9, 5)), ("layer0.bias", (9,)),
            ("layer1.weight", (7, 9)), ("layer1.bias", (7,)),
            ("layer2.weight", (6, 7)), ("layer2.bias", (6,)),
            ("layer3.weight", (2, 6)), ("layer3.bias", (2,))]

    def test_roundtrip_dict(self):
        spec = MlpSpec((8, 6, 3), "relu")
        assert MlpSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            MlpSpec((4,))
        with pytest.raises(ValueError):
            MlpSpec((4, 2), activation="gelu")


class TestInit:
    def test_shapes_and_zero_biases(self):
        spec = MlpSpec((5, 7, 3))
        ps = init_params(spec, seed=0)
        assert ps.get("layer0.weight").size == 35
        assert ps.get("layer1.weight").size == 21
        np.testing.assert_array_equal(ps.get("layer0.bias"), np.zeros(7))
        np.testing.assert_array_equal(ps.get("layer1.bias"), np.zeros(3))

    def test_deterministic_per_seed(self):
        spec = MlpSpec((5, 7, 3))
        a = init_params(spec, seed=3)
        b = init_params(spec, seed=3)
        c = init_params(spec, seed=4)
        np.testing.assert_array_equal(a.get("layer0.weight"),
                                      b.get("layer0.weight"))
        assert not np.array_equal(a.get("layer0.weight"),
                                  c.get("layer0.weight"))

    def test_weight_scale_tracks_fan_in(self):
        spec = MlpSpec((100, 50, 2))
        w = init_params(spec, seed=0).get("layer0.weight")
        assert np.std(w) == pytest.approx(0.1, rel=0.15)

    def test_check_params(self):
        spec = MlpSpec((5, 7, 3))
        ps = init_params(spec, seed=0)
        check_params(spec, ps)
        with pytest.raises(ValueError):
            check_params(MlpSpec((5, 8, 3)), ps)


class TestForward:
    def test_manual_two_layer_network(self):
        # Identity-ish weights picked so the output is computable by hand:
        # z1 = tanh(x), logits = 2 * z1 + 1.
        spec = MlpSpec((2, 2, 2))
        from taskswitch import ParamSet
        ps = ParamSet([
            ("layer0.weight", np.eye(2).reshape(-1)),
            ("layer0.bias", np.zeros(2)),
            ("layer1.weight", (2 * np.eye(2)).reshape(-1)),
            ("layer1.bias", np.ones(2)),
        ])
        x = np.array([[0.5, -1.0]])
        out = forward(spec, ps, x)
        np.testing.assert_allclose(ad._np(out.features), np.tanh(x),
                                   rtol=1e-12)
        np.testing.assert_allclose(ad._np(out.logits), 2 * np.tanh(x) + 1,
                                   rtol=1e-12)

    def test_single_row_promoted_to_batch(self):
        spec = MlpSpec((3, 4, 2))
        ps = init_params(spec, seed=0)
        one = ad._np(forward(spec, ps, np.zeros(3)).logits)
        assert one.shape == (1, 2)

    def test_features_are_penultimate_activations(self):
        spec = MlpSpec((3, 5, 2))
        ps = init_params(spec, seed=1)
        x = np.random.default_rng(0).normal(size=(6, 3))
        f = features(spec, ps, x)
        assert f.shape == (6, 5)
        # tanh keeps features strictly inside (-1, 1).
        assert np.all(np.abs(f) < 1.0)

    def test_relu_activation_branch(self):
        spec = MlpSpec((3, 5, 2), activation="relu")
        ps = init_params(spec, seed=1)
        f = features(spec, ps, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.all(f >= 0.0)
        assert np.any(f > 0.0)

    def test_var_params_match_plain_params(self):
        spec = MlpSpec((4, 6, 3))
        ps = init_params(spec, seed=2)
        x = np.random.default_rng(1).normal(size=(5, 4))
        plain = ad._np(forward(spec, ps, x).logits)
        tape = ad.Tape()
        lvars = {n: tape.var(v) for n, v in ps.modules}
        tape_out = ad._np(forward(spec, lvars, x).logits)
        np.testing.assert_allclose(tape_out, plain, rtol=1e-15)


class TestLossesAndMetrics:
    def test_cross_entropy_matches_manual_log_softmax(self):
        logits = np.array([[2.0, 0.0, -1.0], [0.0, 1.0, 0.5]])
        labels = np.array([0, 2])
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        want = -(log_p[0, 0] + log_p[1, 2]) / 2
        assert float(ad._np(cross_entropy(logits, labels))) == \
            pytest.approx(want, rel=1e-12)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, -1.0], [0.5, 0.5]])
        labels = np.array([0, 1])
        tape = ad.Tape()
        lv = tape.var(logits)
        tape.backward(cross_entropy(lv, labels))
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        onehot = np.eye(2)[labels]
        np.testing.assert_allclose(lv.grad, (p - onehot) / 2, rtol=1e-10)

    def test_predict_and_accuracy(self):
        spec = MlpSpec((2, 3, 2))
        from taskswitch import ParamSet
        # Second logit equals x0: positive x0 predicts class 1.
        ps = ParamSet([
            ("layer0.weight", np.array([[1.0, 0.0], [0.0, 1.0],
                                        [0.0, 0.0]]).reshape(-1)),
            ("layer0.bias", np.zeros(3)),
            ("layer1.weight", np.array([[0.0, 0.0, 0.0],
                                        [5.0, 0.0, 0.0]]).reshape(-1)),
            ("layer1.bias", np.array([0.0, 0.0])),
        ])
        x = np.array([[2.0, 0.0], [-2.0, 0.0], [3.0, 1.0]])
        np.testing.assert_array_equal(predict(spec, ps, x), [1, 0, 1])
        assert accuracy(spec, ps, x, np.array([1, 0, 0])) == \
            pytest.approx(2 / 3)
