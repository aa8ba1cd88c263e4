"""Flat-parameter MLP: shapes, forward pass, losses, metrics."""

import math
import re

import numpy as np
import pytest

from taskswitch import autodiff as ad
from taskswitch import MlpSpec, accuracy, features, forward, init_params, predict
from taskswitch.codec import CompressedModule
from taskswitch.merging import (ReferenceIndex, knn_weights, merged_forward,
                                train_metric)
from taskswitch.model import check_params, cross_entropy, flatten, unflatten
from taskswitch.training import CompressedTaskVector
from taskswitch.vectors import ParamSet, StructureError


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
        ps = ParamSet([
            ("layer0.weight", np.eye(2).reshape(-1)),
            ("layer0.bias", np.zeros(2)),
            ("layer1.weight", (2 * np.eye(2)).reshape(-1)),
            ("layer1.bias", np.ones(2)),
        ])
        x = np.array([[0.5, -1.0]])
        np.testing.assert_allclose(forward(spec, ps, x, depth=1), np.tanh(x),
                                   rtol=1e-12)
        np.testing.assert_allclose(forward(spec, ps, x), 2 * np.tanh(x) + 1,
                                   rtol=1e-12)

    def test_single_row_promoted_to_batch(self):
        spec = MlpSpec((3, 4, 2))
        ps = init_params(spec, seed=0)
        one = forward(spec, ps, np.zeros(3))
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
        plain = forward(spec, ps, x)
        leaf = ad.Tape().var(flatten(spec, ps))
        np.testing.assert_array_equal(ad._np(forward(spec, leaf, x)), plain)

    def test_features_are_forward_to_the_last_hidden_layer(self):
        spec = MlpSpec((4, 6, 5, 3), activation="relu")
        ps = init_params(spec, seed=4)
        x = np.random.default_rng(2).normal(size=(7, 4))
        np.testing.assert_array_equal(forward(spec, ps, x, spec.n_layers - 1),
                                      features(spec, ps, x))

    def test_flat_layout_round_trips(self):
        spec = MlpSpec((4, 6, 5, 3))
        ps = init_params(spec, seed=5)
        flat = flatten(spec, ps)
        assert spec.offsets == (0, 24, 30, 60, 65, 80, 83)
        assert flat.shape == (spec.offsets[-1],)
        back = unflatten(spec, flat)
        assert back.names == ps.names
        for (_, got), (_, want) in zip(back.modules, ps.modules):
            np.testing.assert_array_equal(got, want)


class TestLossesAndMetrics:
    def test_cross_entropy_matches_manual_log_softmax(self):
        logits = np.array([[2.0, 0.0, -1.0], [0.0, 1.0, 0.5]])
        labels = np.array([0, 2])
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        want = -(log_p[0, 0] + log_p[1, 2]) / 2
        assert float(ad._np(cross_entropy(logits, np.eye(3)[labels]))) == \
            pytest.approx(want, rel=1e-12)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, -1.0], [0.5, 0.5]])
        labels = np.array([0, 1])
        tape = ad.Tape()
        lv = tape.var(logits)
        onehot = np.eye(2)[labels]
        tape.backward(cross_entropy(lv, onehot))
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(lv.grad, (p - onehot) / 2, rtol=1e-10)

    def test_predict_and_accuracy(self):
        spec = MlpSpec((2, 3, 2))
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


FIT_SPEC = MlpSpec((4, 3, 2))


def _misfits():
    """(ParamSet, message) pairs that do not fit FIT_SPEC: the message is
    the StructureError every public entry point must raise."""
    good = init_params(FIT_SPEC, seed=0)
    (wn, w), (bn, b) = good.modules[:2]
    return [
        # the total size matches: 13 + 2 elements where spec has 12 + 3
        (ParamSet([(wn, np.append(w, b[0])), (bn, b[1:])]
                  + good.modules[2:]),
         "module 'layer0.weight': size 12 vs 13"),
        (ParamSet(good.modules[:3]),
         "module 'layer1.bias': module count 4 vs 3"),
        (ParamSet(good.modules + [("layer2.weight", np.zeros(1))]),
         "module 'layer2.weight': module count 4 vs 5"),
        (ParamSet([(bn, b), (wn, w)] + good.modules[2:]),
         "module name mismatch: 'layer0.weight' vs 'layer0.bias'"),
    ]


def _merged(params, x):
    """merged_forward over a bundle that fits FIT_SPEC, with params, a
    ParamSet or a flat vector, as the base: a base that does not fit is
    refused as the base, before the bundle is checked."""
    empty = np.zeros(0, dtype=np.int64)
    bundle = CompressedTaskVector("t", [
        (name, CompressedModule(math.prod(shape), empty, empty, 1, 2.0, 2.0,
                                1.0))
        for name, shape in FIT_SPEC.module_shapes()])
    index = ReferenceIndex(["t"], np.zeros((1, FIT_SPEC.feature_dim)), [0],
                           np.eye(FIT_SPEC.feature_dim))
    return merged_forward(FIT_SPEC, params, [bundle], index, x,
                          n_neighbors=1)


# every public entry point that runs the model on (params, rows)
ENTRY_POINTS = pytest.mark.parametrize("entry", [
    lambda ps, x: forward(FIT_SPEC, ps, x),
    lambda ps, x: predict(FIT_SPEC, ps, x),
    lambda ps, x: accuracy(FIT_SPEC, ps, x, np.zeros(len(x), int)),
    lambda ps, x: features(FIT_SPEC, ps, x),
    _merged,
], ids=["forward", "predict", "accuracy", "features", "merged_forward"])


class TestParamsMustFitSpec:
    @ENTRY_POINTS
    def test_every_entry_point_names_the_module(self, entry):
        x = np.ones((1, 4))
        for params, message in _misfits():
            with pytest.raises(StructureError,
                               match=f"^{re.escape(message)}$"):
                entry(params, x)

    @ENTRY_POINTS
    def test_every_entry_point_names_both_flat_shapes(self, entry):
        # one value too many used to be ignored, one too few to fail in
        # numpy's broadcasting and a row vector in its reshape
        flat = flatten(FIT_SPEC, init_params(FIT_SPEC, seed=0))
        for bad in (np.append(flat, 1.0), flat[:-1], flat[None]):
            with pytest.raises(StructureError, match="^" + re.escape(
                    f"flat parameters of shape {bad.shape}, the model's "
                    "shape is (23,)") + "$"):
                entry(bad, np.ones((2, 4)))

    def test_a_var_of_another_shape_is_refused(self):
        flat = flatten(FIT_SPEC, init_params(FIT_SPEC, seed=0))
        leaf = ad.Tape().var(flat[:-1])
        with pytest.raises(StructureError, match=re.escape("shape (22,)")):
            forward(FIT_SPEC, leaf, np.ones((2, 4)))

    def test_a_fitting_set_passes(self):
        check_params(FIT_SPEC, init_params(FIT_SPEC, seed=0))


class TestRowsMustFitWidth:
    @ENTRY_POINTS
    def test_every_entry_point_names_both_widths(self, entry):
        params = init_params(FIT_SPEC, seed=0)
        for width in (3, 5):
            with pytest.raises(StructureError, match=(
                    f"^rows of width {width}, the model's input width is 4$")):
                entry(params, np.ones((2, width)))

    @ENTRY_POINTS
    def test_every_entry_point_takes_the_flat_vector(self, entry):
        params = init_params(FIT_SPEC, seed=0)
        flat = flatten(FIT_SPEC, params)
        x = np.random.default_rng(0).normal(size=(3, 4))
        np.testing.assert_equal(entry(flat, x), entry(params, x))
        for width in (3, 5):
            with pytest.raises(StructureError, match=(
                    f"^rows of width {width}, the model's input width is 4$")):
                entry(flat, np.ones((2, width)))

    @pytest.mark.parametrize("entry", [
        lambda index, f: knn_weights(index, f, n_neighbors=1),
        lambda index, f: train_metric(index, [("t", f)], rank=1, epochs=1,
                                      n_neighbors=1),
    ], ids=["knn_weights", "train_metric"])
    def test_index_entry_points_name_both_widths(self, entry):
        index = ReferenceIndex(["t"], np.zeros((2, 3)), [0, 0], np.eye(3))
        for width in (2, 4):
            with pytest.raises(StructureError, match=(
                    f"^features of width {width}, the index's width is 3$")):
                entry(index, np.ones((2, width)))
