"""Each fused tape node against the chain of small ops it replaces.

`composed_reference` keeps the chains. A fused node must give the same
value and the same gradients bit for bit, on a tape and as a plain forward,
and pass a central finite-difference check. On top of that, a compression
run with the chains patched in for the fused nodes, and a fine-tune against
the per-module loop `cr.fine_tune`, must leave the same bits in every
step's log line and every final array.
"""

import numpy as np
import pytest

from taskswitch import autodiff as ad
from taskswitch import harness, merging, training
from taskswitch.losses import cka_loss, kl_loss, mse_loss, reference_side
from taskswitch.model import MlpSpec, cross_entropy, forward, init_params
from taskswitch.seeding import BATCH_BLOCK
from taskswitch.training import (INIT_SCALE_LOGIT, StackedModules,
                                 TrainConfig, make_objective,
                                 reference_outputs)
from taskswitch.vectors import ParamSet, StructureError, TaskVector, add
import composed_reference as cr
from gradcheck import fd_check

RNG = np.random.default_rng(12)


def _bits(x) -> tuple:
    x = np.asarray(ad._np(x), dtype=np.float64)
    return x.shape, x.tobytes()


# Weights on the scalar under test, so that the gradient entering a node
# is not always exactly 1, where g * a * b and g * (a * b) agree; g / n and
# g * (1 / n) differ for about one g in five.
OUTER = (1.0, *np.random.default_rng(5).uniform(0.1, 3.0, 11))


def _same(fused, composed, leaves):
    """Equal values and leaf gradients, bit for bit, under each outer
    weight; the plain forward of either equals the value on the tape."""
    for outer in OUTER:
        value, grads = ad.value_and_grad(
            lambda lv: cr.mul(fused(lv), outer), leaves)
        want_value, want = ad.value_and_grad(
            lambda lv: cr.mul(composed(lv), outer), leaves)
        assert _bits(value) == _bits(want_value)
        for key in leaves:
            assert np.all(np.isfinite(want[key])), key
            assert _bits(grads[key]) == _bits(want[key]), (key, outer)
    assert _bits(fused(leaves)) == _bits(composed(leaves))


def _fd(fn, leaves):
    # the step and bound acceptance 06 checks the whole objective with
    report = fd_check(fn, leaves, h=1e-5, tol=1e-4)
    assert report.frac_within_tol == 1.0, report.max_rel_err


def _probe(out, weights):
    """A scalar that weighs every entry of out differently."""
    return cr.sum_(cr.mul(out, weights))


class TestSoftmax:
    @pytest.mark.parametrize("shape, axis", [((5, 4), -1), ((6,), -1),
                                             ((3, 5), 0), ((4, 1), -1)])
    def test_matches_chain(self, shape, axis):
        x = RNG.normal(size=shape) * 2
        r = RNG.normal(size=shape)

        def pick(softmax):
            return lambda lv: _probe(softmax(lv["x"], axis=axis), r)
        _same(pick(ad.softmax), pick(cr.softmax), {"x": x})
        _fd(pick(ad.softmax), {"x": x})

    @pytest.mark.parametrize("temperature", [0.9 ** 7, 4.0])
    def test_temperature_matches_chain(self, temperature):
        x = RNG.normal(size=(5, 4)) * 2
        r = RNG.normal(size=(5, 4))

        def fused(lv):
            return _probe(ad.softmax(lv["x"], temperature=temperature), r)

        def composed(lv):
            return _probe(cr.softmax(cr.div(lv["x"], temperature)), r)
        _same(fused, composed, {"x": x})
        _fd(fused, {"x": x})


def _chain_forward(spec, flat, x, depth):
    """cr.forward over cr.take slices of flat, the output at depth."""
    params = {name: cr.take(flat, slice(a, b)) for name, a, b in zip(
        spec.module_names(), spec.offsets[:-1], spec.offsets[1:])}
    out = cr.forward(spec, params, x)
    return out.logits if depth is None else out.features


class TestForward:
    """The network node over a flat leaf against the layer chain over
    cr.take slices of it. The slices add each module's gradient to zeros,
    which would turn a -0.0 element into +0.0 where the node kept it; but
    the node's weight and bias gradients are sums (a matmul over the batch
    and gz.sum(axis=0)) that numpy and BLAS start at +0.0, so no element
    is -0.0 and the gradients are equal bit for bit."""

    @pytest.mark.parametrize("act", ["tanh", "relu"])
    @pytest.mark.parametrize("widths, features", [
        ((5, 3), False), ((5, 4, 3), False), ((5, 4, 3), True),
        ((5, 6, 4, 3), False), ((5, 6, 4, 3), True),
        ((5, 6, 4, 4, 3), False), ((5, 6, 4, 4, 3), True)])
    def test_matches_chain(self, widths, features, act):
        spec = MlpSpec(widths, act)
        depth = spec.n_layers - 1 if features else None
        x = RNG.normal(size=(8, 5))
        leaves = {"p": RNG.normal(size=spec.offsets[-1])}
        width = spec.widths[depth] if features else spec.n_classes
        r = RNG.normal(size=(8, width))

        def pick(net):
            return lambda lv: _probe(net(spec, lv["p"], x, depth), r)
        _same(pick(forward), pick(_chain_forward), leaves)
        _fd(pick(forward), leaves)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_all_negative_zero_terms_sum_to_positive_zero(self, rows):
        # hidden unit 0 is off for every row and feeds the output through
        # a negative weight, so every term of its weight and bias
        # gradients is -0.0; their sums are +0.0, as through the slices
        spec = MlpSpec((2, 2, 1), "relu")
        flat = np.array([1.0, 1.0, 1.0, 1.0, -100.0, 0.0, -1.0, 1.0, 0.0])
        x = np.array([[1.0, 2.0], [3.0, 0.5]])[:rows]
        grads = [ad.value_and_grad(
            lambda lv: _probe(net(spec, lv["p"], x, None),
                              np.ones((rows, 1))),
            {"p": flat})[1]["p"] for net in (forward, _chain_forward)]
        assert _bits(grads[0]) == _bits(grads[1])
        assert np.all(grads[0][[0, 1, 4]] == 0.0)
        assert not np.any(np.signbit(grads[0]))

    def test_mapping_is_laid_out_flat(self):
        spec = MlpSpec((5, 6, 4, 3))
        params = init_params(spec, seed=3)
        x = RNG.normal(size=(7, 5))
        want = _bits(forward(spec, np.concatenate(
            [v for _, v in params.modules]), x))
        assert _bits(forward(spec, params, x)) == want
        # a ParamSet is laid out in its own order, which must be spec's
        swapped = ParamSet(params.modules[1::-1] + params.modules[2:])
        with pytest.raises(StructureError, match="^module name mismatch: "
                           "'layer0.weight' vs 'layer0.bias'$"):
            forward(spec, swapped, x)


class TestCrossEntropy:
    def test_matches_chain(self):
        leaves = {"z": RNG.normal(size=(9, 4)) * 3}
        labels = RNG.integers(0, 4, size=9)

        _same(lambda lv: cross_entropy(lv["z"], np.eye(4)[labels]),
              lambda lv: cr.cross_entropy(lv["z"], labels), leaves)
        _fd(lambda lv: cross_entropy(lv["z"], np.eye(4)[labels]), leaves)


class TestLosses:
    @pytest.mark.parametrize("temperature", [4.0, 3.0, 0.3])
    def test_kl(self, temperature):
        ref = RNG.normal(size=(9, 4)) * 2
        leaves = {"c": RNG.normal(size=(9, 4)) * 2}

        def pick(loss):
            return lambda lv: loss(ref, lv["c"], temperature=temperature)
        _same(pick(kl_loss), pick(cr.kl_loss), leaves)
        if temperature >= 1.0:
            # at T = 0.3 the curvature puts central differences at this
            # step past the bound; bit-equality with the chain still holds
            _fd(pick(kl_loss), leaves)

    def test_mse(self):
        ref = RNG.normal(size=(9, 4))
        leaves = {"c": RNG.normal(size=(9, 4))}

        def pick(loss):
            return lambda lv: loss(ref, lv["c"])
        _same(pick(mse_loss), pick(cr.mse_loss), leaves)
        _fd(pick(mse_loss), leaves)

    def test_cka(self):
        ref = RNG.normal(size=(9, 5))
        leaves = {"c": RNG.normal(size=(9, 5))}

        def pick(loss):
            return lambda lv: loss(ref, lv["c"])
        _same(pick(cka_loss), pick(cr.cka_loss), leaves)
        _fd(pick(cka_loss), leaves)

    def test_cka_zero_features_give_the_constant(self):
        ref = RNG.normal(size=(6, 3))
        flat = {"c": np.zeros((6, 3))}
        for loss in (cka_loss, cr.cka_loss):
            assert ad.value_and_grad(lambda lv: cr.add(
                loss(ref, lv["c"]), cr.sum_(cr.mul(lv["c"], 0.0))), flat)[
                0].value == 1.0


def _stacked(spec, seed, signs=None):
    """StackedModules of a random task vector; signs maps a module index to
    "+", "-", "0" or "nan" (all positive, negative, zero or NaN)."""
    rng = np.random.default_rng(seed)
    base = init_params(spec, seed=seed)
    mods = []
    for i, (name, v) in enumerate(base.modules):
        tau = 0.5 * rng.standard_normal(v.size)
        tau = {"+": np.abs(tau), "-": -np.abs(tau), "0": 0.0 * tau,
               "nan": np.full_like(tau, np.nan)}.get((signs or {}).get(i),
                                                     tau)
        mods.append((name, tau))
    tv = TaskVector("t", mods)
    finetuned = add(base, TaskVector("t", [(n, np.nan_to_num(t))
                                           for n, t in mods]))
    return StackedModules.build(spec, base, tv), base, tv, finetuned


def _gates(n_mod, rng=RNG):
    gates = 0.7 * rng.normal(size=(3, n_mod))
    gates[2] += INIT_SCALE_LOGIT
    return gates


SMALL = MlpSpec((4, 6, 3))
DEEP = MlpSpec((5, 7, 6, 5, 4, 3))


class TestObjectivePieces:
    @pytest.mark.parametrize("rho", [1.0, 0.9 ** 12])
    @pytest.mark.parametrize("signs", [None, {0: "+", 1: "0", 2: "nan",
                                              3: "-"}])
    def test_gate(self, rho, signs):
        sm = _stacked(SMALL, 3, signs)[0]
        r = RNG.normal(size=sm.base.size)
        leaves = {"gates": _gates(len(sm.sizes))}

        def fused(lv):
            return _probe(training._gate(sm, lv["gates"], rho), r)

        def composed(lv):
            return _probe(cr.gate(sm, lv["gates"], rho)[0], r)
        _same(fused, composed, leaves)
        if signs is None and rho == 1.0:
            _fd(fused, leaves)

    def test_mix(self):
        sm = _stacked(DEEP, 4, {1: "-", 4: "0"})[0]
        n_mod = len(sm.sizes)
        leaves = {"gates": _gates(n_mod),
                  "soft": RNG.uniform(0.0, 1.0, sm.base.size),
                  "w": RNG.dirichlet(np.ones(4), n_mod)}
        r = RNG.normal(size=sm.base.size)

        def fused(lv):
            return _probe(
                training._mix(sm, lv["gates"], lv["soft"], lv["w"]), r)

        def composed(lv):
            scale = cr.softplus(cr.take(lv["gates"], 2))
            return _probe(cr.mix(sm, scale, lv["soft"], lv["w"]), r)
        _same(fused, composed, leaves)
        _fd(fused, leaves)

    def test_sparsity_and_width_terms(self):
        # the two terms and the weighted preservation loss, as one total
        sm = _stacked(DEEP, 5)[0]
        leaves = {"soft": RNG.uniform(0.0, 1.0, sm.base.size),
                  "w": RNG.dirichlet(np.ones(4), len(sm.sizes)),
                  "preserve": np.asarray(RNG.uniform(0.1, 2.0))}

        def fused(lv):
            return training._total(sm, lv["soft"], lv["w"], lv["preserve"],
                                   0.7)[0]

        def composed(lv):
            return cr.add(cr.add(cr.sparsity_term(sm, lv["soft"]),
                                 cr.width_term(lv["w"], sm.bit_norm)),
                          cr.mul(lv["preserve"], 0.7))
        _same(fused, composed, leaves)
        _fd(fused, leaves)


def _objectives(spec, seed, kind, rho, omega, signs=None):
    sm, _, _, finetuned = _stacked(spec, seed, signs)
    x = np.random.default_rng(seed).standard_normal((12, spec.input_dim))
    ref = reference_outputs(spec, finetuned, x, kind)
    args = (x, kind, 0.3, 4.0, rho, omega)
    leaves = {"gates": _gates(len(sm.sizes)),
              "bits": 0.7 * RNG.normal(size=(len(sm.sizes), 4))}
    return (make_objective(spec, sm, reference_side(kind, ref, 4.0), *args),
            cr.make_objective(spec, sm, ref, *args), leaves)


class TestObjective:
    @pytest.mark.parametrize("kind", ["kl", "mse", "cka"])
    @pytest.mark.parametrize("spec, signs", [
        (SMALL, None), (SMALL, {0: "+", 1: "0", 2: "nan", 3: "-"}),
        (DEEP, {1: "-", 7: "+"})])
    def test_matches_chain(self, kind, spec, signs):
        fused, composed, leaves = _objectives(spec, 6, kind, 0.9 ** 3,
                                              0.9 ** 7, signs)
        _same(lambda lv: fused(lv)[0], composed, leaves)
        assert fused(leaves)[1] == composed(leaves, return_parts=True)[1]


@pytest.mark.parametrize("kind", ["kl", "mse", "cka"])
def test_compression_run_matches_chain_step_by_step(monkeypatch, kind):
    # Every step's logged parts and the final leaves and bundle come out
    # bit-equal with the composed objective patched in.
    sm, base, tv, finetuned = _stacked(SMALL, 7, {2: "-"})
    x = np.random.default_rng(7).standard_normal((16, SMALL.input_dim))
    config = TrainConfig(loss_kind=kind, steps=40, exemplar_count=16,
                         batch_size=8)
    got = training.train(tv, base, finetuned, x, SMALL, config)
    ref_all = reference_outputs(SMALL, finetuned, x, kind)

    def composed(spec, sm, side, batch_x, *rest):
        # train indexes the reference side of all exemplar rows per batch;
        # the chain ignores it and composes the loss from the batch's raw
        # reference rows, found by matching the batch's inputs.
        rows = (batch_x[:, None] == x[None]).all(axis=2).argmax(axis=1)
        objective = cr.make_objective(spec, sm, ref_all[rows], batch_x,
                                      *rest)
        return lambda lv: objective(lv, return_parts=True)
    monkeypatch.setattr(training, "make_objective", composed)
    want = training.train(tv, base, finetuned, x, SMALL, config)
    assert got.history == want.history
    assert _bits(got.gates) == _bits(want.gates)
    assert _bits(got.bits) == _bits(want.bits)
    assert [s.data for s in got.compressed.to_streams()] == [
        s.data for s in want.compressed.to_streams()]


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_fine_tune_matches_chain(optimizer, activation):
    # the flat loop against cr.fine_tune, on two and four layers: a leaf
    # and an optimizer per module, the layer chain, and one integers draw
    # per step; the steps cross a block of batch draws
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(40, 5)), rng.integers(0, 3, size=40)
    for widths in ((5, 7, 3), (5, 7, 6, 4, 3)):
        spec = MlpSpec(widths, activation)
        args = (spec, init_params(spec, seed=8), x, y)
        kwargs = dict(steps=BATCH_BLOCK + 6, lr=0.05, batch_size=8,
                      optimizer=optimizer, seed=2)
        got = harness.fine_tune(*args, **kwargs)
        want = cr.fine_tune(*args, **kwargs)
        assert got.names == want.names
        for (name, g), (_, w) in zip(got.modules, want.modules):
            assert _bits(g) == _bits(w), (widths, name)


def _metric_case(seed):
    """(feats, centers, labels, task_of_row, projection): 12 rows, 9
    references of 3 tasks, 5 features, rank 3."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(12, 5)), rng.normal(size=(9, 5)),
            rng.integers(0, 3, size=9), rng.integers(0, 3, size=12),
            rng.normal(size=(3, 5)))


class TestMetricObjective:
    @staticmethod
    def _pick(feats, centers, labels, task_of_row, c):
        return lambda objective: lambda lv: objective(
            lv["p"], feats, centers, labels, task_of_row, c)

    @pytest.mark.parametrize("seed, c", [(0, 1), (1, 4), (2, 9)])
    def test_matches_chain(self, seed, c):
        feats, centers, labels, task_of_row, proj = _metric_case(seed)
        pick = self._pick(feats, centers, labels, task_of_row, c)
        _same(pick(merging.metric_objective), pick(cr.metric_objective),
              {"p": proj})
        _fd(pick(merging.metric_objective), {"p": proj})

    @pytest.mark.parametrize("c", [1, 2, 3, 5, 7])
    def test_matches_chain_on_tied_distances(self, c):
        # duplicated centers under other labels tie exactly at every C
        feats, centers, labels, task_of_row, proj = _metric_case(3)
        centers = np.repeat(centers[:3], [2, 3, 2], axis=0)
        labels = np.array([1, 0, 2, 0, 1, 2, 0])
        pick = self._pick(feats, centers, labels, task_of_row, c)
        _same(pick(merging.metric_objective), pick(cr.metric_objective),
              {"p": proj})

    def test_matches_chain_where_the_ratio_is_capped(self):
        # the second row is 1e32 from both references: its mass is below
        # NUM_FLOOR and its capped ratio passes no gradient; the first row
        # keeps the loss and the gradient nonzero
        feats = np.array([[0.0, 0.5], [0.0, 1e32]])
        pick = self._pick(feats, np.array([[1.0, 0.0], [-1.0, 0.2]]),
                          np.array([0, 1]), np.array([0, 0]), 2)
        leaves = {"p": np.array([[1.0, 0.3], [0.2, 1.5]])}
        _same(pick(merging.metric_objective), pick(cr.metric_objective),
              leaves)
        assert float(ad._np(pick(merging.metric_objective)(leaves))) > 0.0

    def test_zero_loss_differs_only_in_sign(self):
        pick = self._pick(np.array([[0.0, 0.0]]),
                          np.array([[1.0, 0.0], [-1.0, 0.0]]),
                          np.array([0, 0]), np.array([0]), 2)
        leaves = {"p": np.eye(2)}
        value, grads = ad.value_and_grad(pick(merging.metric_objective),
                                         leaves)
        want_value, want = ad.value_and_grad(pick(cr.metric_objective),
                                             leaves)
        assert _bits(value) == _bits(np.float64(0.0))
        assert _bits(want_value) == _bits(np.float64(-0.0))
        assert _bits(grads["p"]) == _bits(want["p"])


def test_train_metric_matches_chain_epoch_by_epoch(monkeypatch):
    # The projection every epoch starts from, every epoch's loss and the
    # trained projection come out bit-equal with the chain patched in.
    rng = np.random.default_rng(9)
    task_features = [(f"t{k}", rng.normal(size=(15, 6)) + 2.0 * rng.normal(
        size=6)) for k in range(3)]
    index = merging.ReferenceIndex(
        [t for t, _ in task_features],
        np.vstack([f[:4] for _, f in task_features]), np.repeat(
            np.arange(3), 4), np.eye(6))

    def run(objective):
        seen = []

        def recording(projection, *args):
            seen.append(ad._np(projection).tobytes())
            return objective(projection, *args)
        monkeypatch.setattr(merging, "metric_objective", recording)
        res = merging.train_metric(index, task_features, rank=3, epochs=100,
                                   n_neighbors=4)
        monkeypatch.undo()
        return res, seen
    got, got_seen = run(merging.metric_objective)
    want, want_seen = run(cr.metric_objective)
    assert len(got_seen) == 100 and got_seen == want_seen
    assert got.losses == want.losses
    assert _bits(got.index.projection) == _bits(want.index.projection)


class TestRecord:
    def test_plain_arguments_give_the_value_alone(self):
        value = np.arange(3.0)
        assert ad.record((np.ones(3), 2.0), value, None) is value

    def test_one_node_with_a_gradient_per_var(self):
        tape = ad.Tape()
        x = tape.var(np.array([1.0, 2.0]))
        out = ad.record((3.0, x), ad._np(x) * 3.0,
                        lambda g: (None, g * 3.0))
        assert out.parents == (None, x)
        tape.backward(cr.sum_(out))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_operands_on_two_tapes_rejected(self):
        x, y = ad.Tape().var(np.ones(2)), ad.Tape().var(np.ones(2))
        with pytest.raises(ValueError, match="different tapes"):
            ad.record((x, y), np.ones(2), None)
