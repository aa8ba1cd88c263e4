"""Each fused tape node against the chain of small ops it replaces.

`composed_reference` keeps the chains. A fused node must give the same
value and the same gradients bit for bit, on a tape and as a plain forward,
and pass a central finite-difference check. On top of that, a compression
run and a fine-tune with the chains patched in for the fused nodes must
leave the same bits in every step's log line and every final array.
"""

import numpy as np
import pytest

from taskswitch import autodiff as ad
from taskswitch import harness, training
from taskswitch.losses import cka_loss, kl_loss, mse_loss
from taskswitch.model import (ACTIVATIONS, MlpSpec, cross_entropy, dense,
                              init_params)
from taskswitch.training import (INIT_SCALE_LOGIT, StackedModules,
                                 TrainConfig, make_objective,
                                 reference_outputs)
from taskswitch.vectors import TaskVector, add
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
            lambda lv: ad.mul(fused(lv), outer), leaves)
        want_value, want = ad.value_and_grad(
            lambda lv: ad.mul(composed(lv), outer), leaves)
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
    return ad.sum_(ad.mul(out, weights))


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


class TestDense:
    @pytest.mark.parametrize("act", [None, "tanh", "relu"])
    @pytest.mark.parametrize("input_is_leaf", [False, True])
    def test_matches_chain(self, act, input_is_leaf):
        leaves = {"w": RNG.normal(size=15), "b": RNG.normal(size=3)}
        a = RNG.normal(size=(8, 5))
        if input_is_leaf:
            leaves["a"] = a
        r = RNG.normal(size=(8, 3))
        op = ACTIVATIONS.get(act)

        def pick(layer):
            return lambda lv: _probe(
                layer(lv.get("a", a), lv["w"], lv["b"], 3, op), r)
        _same(pick(dense), pick(cr.dense), leaves)
        _fd(pick(dense), leaves)


class TestCrossEntropy:
    def test_matches_chain(self):
        leaves = {"z": RNG.normal(size=(9, 4)) * 3}
        labels = RNG.integers(0, 4, size=9)

        def pick(ce):
            return lambda lv: ce(lv["z"], labels)
        _same(pick(cross_entropy), pick(cr.cross_entropy), leaves)
        _fd(pick(cross_entropy), leaves)


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
            assert ad.value_and_grad(lambda lv: ad.add(
                loss(ref, lv["c"]), ad.sum_(ad.mul(lv["c"], 0.0))), flat)[
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
    return StackedModules.build(base, tv), base, tv, finetuned


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
        r_soft = RNG.normal(size=sm.base.size)
        r_scale = RNG.normal(size=len(sm.names))

        def pick(gate):
            def fn(lv):
                soft, scale = gate(sm, lv["gates"], rho)
                return ad.add(_probe(soft, r_soft), _probe(scale, r_scale))
            return fn
        leaves = {"gates": _gates(len(sm.names))}
        _same(pick(training._gate), pick(cr.gate), leaves)
        if signs is None and rho == 1.0:
            _fd(pick(training._gate), leaves)

    def test_mix(self):
        sm = _stacked(DEEP, 4, {1: "-", 4: "0"})[0]
        n_mod = len(sm.names)
        leaves = {"scale": RNG.uniform(0.5, 2.0, n_mod),
                  "soft": RNG.uniform(0.0, 1.0, sm.base.size),
                  "w": RNG.dirichlet(np.ones(4), n_mod)}
        r = RNG.normal(size=sm.base.size)

        def pick(mix):
            return lambda lv: _probe(
                mix(sm, lv["scale"], lv["soft"], lv["w"]), r)
        _same(pick(training._mix), pick(cr.mix), leaves)
        _fd(pick(training._mix), leaves)

    def test_sparsity_and_width_terms(self):
        sm = _stacked(DEEP, 5)[0]
        leaves = {"soft": RNG.uniform(0.0, 1.0, sm.base.size),
                  "w": RNG.dirichlet(np.ones(4), len(sm.names))}

        def pick(sparsity, width):
            return lambda lv: ad.add(ad.mul(sparsity(sm, lv["soft"]), 0.7),
                                     width(lv["w"], 40.0))
        fused = pick(training._sparsity_term, training._width_term)
        _same(fused, pick(cr.sparsity_term, cr.width_term), leaves)
        _fd(fused, leaves)


def _objectives(spec, seed, kind, rho, omega, signs=None):
    sm, _, _, finetuned = _stacked(spec, seed, signs)
    x = np.random.default_rng(seed).standard_normal((12, spec.input_dim))
    ref = reference_outputs(spec, finetuned, x, kind)
    args = (spec, sm, ref, x, kind, 0.3, 4.0, rho, omega)
    leaves = {"gates": _gates(len(sm.names)),
              "bits": 0.7 * RNG.normal(size=(len(sm.names), 4))}
    return make_objective(*args), cr.make_objective(*args), leaves


class TestObjective:
    @pytest.mark.parametrize("kind", ["kl", "mse", "cka"])
    @pytest.mark.parametrize("spec, signs", [
        (SMALL, None), (SMALL, {0: "+", 1: "0", 2: "nan", 3: "-"}),
        (DEEP, {1: "-", 7: "+"})])
    def test_matches_chain(self, kind, spec, signs):
        fused, composed, leaves = _objectives(spec, 6, kind, 0.9 ** 3,
                                              0.9 ** 7, signs)
        _same(fused, composed, leaves)
        assert fused(leaves, return_parts=True)[1] == composed(
            leaves, return_parts=True)[1]


@pytest.mark.parametrize("kind", ["kl", "mse", "cka"])
def test_compression_run_matches_chain_step_by_step(monkeypatch, kind):
    # Every step's logged parts and the final leaves and bundle come out
    # bit-equal with the composed objective patched in.
    sm, base, tv, finetuned = _stacked(SMALL, 7, {2: "-"})
    x = np.random.default_rng(7).standard_normal((16, SMALL.input_dim))
    config = TrainConfig(loss_kind=kind, steps=40, exemplar_count=16,
                         batch_size=8)
    got = training.train(tv, base, finetuned, x, SMALL, config)
    monkeypatch.setattr(training, "make_objective", cr.make_objective)
    want = training.train(tv, base, finetuned, x, SMALL, config)
    assert got.history == want.history
    assert _bits(got.gates) == _bits(want.gates)
    assert _bits(got.bits) == _bits(want.bits)
    assert [s.data for s in got.compressed.to_streams()] == [
        s.data for s in want.compressed.to_streams()]


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_fine_tune_matches_chain(monkeypatch, optimizer, activation):
    spec = MlpSpec((5, 7, 6, 3), activation)
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(40, 5)), rng.integers(0, 3, size=40)
    params = init_params(spec, seed=8)

    def run():
        return harness.fine_tune(spec, params, x, y, steps=30, lr=0.05,
                                 batch_size=8, optimizer=optimizer)
    got = run()
    monkeypatch.setattr(harness, "forward", cr.forward)
    monkeypatch.setattr(harness, "cross_entropy", cr.cross_entropy)
    want = run()
    for (name, g), (_, w) in zip(got.modules, want.modules):
        assert _bits(g) == _bits(w), name


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
        tape.backward(ad.sum_(out))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_operands_on_two_tapes_rejected(self):
        x, y = ad.Tape().var(np.ones(2)), ad.Tape().var(np.ones(2))
        with pytest.raises(ValueError, match="different tapes"):
            ad.record((x, y), np.ones(2), None)
