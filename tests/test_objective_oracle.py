"""The compression objective against a per-module reference built from the
gating and bit-width oracle in `lgs_reference`.

`_reference_objective` composes `soft_gate`, `mixed_quantize`,
`sparsity_loss` and `bit_regularizer` module by module, one subgraph per
module. `make_objective` must give the same value and the same leaf
gradients; only summation order may differ, so the bound is 1e-12 of the
largest magnitude in each module's gate column and width row.
"""

import numpy as np
import pytest

from taskswitch import autodiff as ad
from taskswitch.bitwidth import CANDIDATE_WIDTHS, QuantSpec
from taskswitch.losses import (DEFAULT_LAMBDA, preservation_loss,
                               reference_side)
from taskswitch.model import MlpSpec, forward, init_params
from taskswitch.training import (INIT_SCALE_LOGIT, StackedModules,
                                 TrainConfig, make_objective,
                                 reference_outputs, temperature_schedule,
                                 train)
from taskswitch.vectors import TaskVector, add, signed_bounds
import composed_reference as cr
from lgs_reference import (BitLogits, GateParams, bit_regularizer, harden,
                           mixed_quantize, select_bitwidth, soft_gate,
                           sparsity_loss)

REL = 1e-12

SMALL = MlpSpec((4, 6, 3))
DEEP = MlpSpec((5, 7, 6, 5, 4, 3))          # five layers, ten modules


def _reference_objective(spec, base, tv, ref, batch_x, kind, lam, temp,
                         rho, omega):
    base_lookup = dict(base.modules)
    qspecs = {n: [QuantSpec.from_values(tau, b) for b in CANDIDATE_WIDTHS]
              for n, tau in tv.modules}

    def objective(leaves):
        masks, logit_sets, params = [], [], {}
        for m, (name, tau) in enumerate(tv.modules):
            leaf = cr.take(cr.transpose(leaves["gates"]), m)
            gp = GateParams(cr.take(leaf, 0), cr.take(leaf, 1),
                            cr.take(leaf, 2))
            gate = soft_gate(tau, gp, rho)
            masks.append(gate.soft_mask)
            bl = BitLogits(cr.take(leaves["bits"], m), omega)
            logit_sets.append(bl)
            blended = mixed_quantize(tau, bl, qspecs[name])
            params[name] = cr.add(base_lookup[name],
                                  cr.mul(gate.scaled_mask, blended))
        out = forward(spec, params, batch_x)
        cmp = out.features if kind == "cka" else out.logits
        l_per = preservation_loss(kind, ref, cmp, temperature=temp)
        l_sp = sparsity_loss(masks)
        l_bit = bit_regularizer(logit_sets)
        return cr.add(cr.add(l_sp, l_bit), cr.mul(l_per, lam))
    return objective


def _problem(spec, seed, signs=None):
    """Task vector, base, fine-tuned parameters, exemplars and random leaves.

    signs maps a module index to "+" (all magnitudes positive), "-" (all
    negative), "0" (all zero) or "nan" (all NaN).
    """
    rng = np.random.default_rng(seed)
    base = init_params(spec, seed=seed)
    mods = []
    for i, (n, v) in enumerate(base.modules):
        tau = 0.5 * rng.standard_normal(v.size)
        mode = (signs or {}).get(i)
        if mode == "+":
            tau = np.abs(tau)
        elif mode == "-":
            tau = -np.abs(tau)
        elif mode == "0":
            tau = np.zeros_like(tau)
        elif mode == "nan":
            tau = np.full_like(tau, np.nan)
        mods.append((n, tau))
    tv = TaskVector("t", mods)
    finetuned = add(base, TaskVector("t", [(n, np.nan_to_num(t))
                                           for n, t in mods]))
    exemplars = rng.standard_normal((12, spec.input_dim))
    leaves = {"gates": np.empty((3, len(mods))),
              "bits": np.empty((len(mods), 4))}
    for m in range(len(mods)):
        leaves["gates"][:, m] = [
            0.7 * rng.standard_normal(), 0.7 * rng.standard_normal(),
            INIT_SCALE_LOGIT + 0.3 * rng.standard_normal()]
        leaves["bits"][m] = 0.7 * rng.standard_normal(4)
    return base, tv, finetuned, exemplars, leaves


def _value_and_grads(objective, leaves):
    tape = ad.Tape()
    lvars = {k: tape.var(v) for k, v in leaves.items()}
    out = objective(lvars)
    tape.backward(out)
    grads = {k: (lv.grad if lv.grad is not None else np.zeros_like(leaves[k]))
             for k, lv in lvars.items()}
    return float(ad._np(out)), grads


def _compare(spec, seed, kind, rho, omega, signs=None):
    base, tv, finetuned, x, leaves = _problem(spec, seed, signs)
    ref = reference_outputs(spec, finetuned, x, kind)
    args = (ref, x, kind, DEFAULT_LAMBDA[kind], 4.0, rho, omega)
    want_val, want = _value_and_grads(
        _reference_objective(spec, base, tv, *args), leaves)
    objective = make_objective(spec, StackedModules.build(base, tv),
                               reference_side(kind, ref, 4.0), *args[1:])

    def obj(lv):
        return objective(lv)[0]
    got_val, got = _value_and_grads(obj, leaves)
    assert np.isfinite(want_val)
    assert got_val == pytest.approx(want_val, rel=REL, abs=0.0)
    # Plain-array evaluation (the finite-difference path) agrees too.
    assert float(ad._np(obj(leaves))) == pytest.approx(want_val, rel=REL,
                                                       abs=0.0)
    assert set(got) == set(want)
    # One module's leaves at a time: gate column m and width row m.
    for key, rows_got, rows_want in (
            ("gates", got["gates"].T, want["gates"].T),
            ("bits", got["bits"], want["bits"])):
        for m, (g, w) in enumerate(zip(rows_got, rows_want)):
            assert np.all(np.isfinite(w)), (key, m)
            np.testing.assert_allclose(g, w, rtol=0.0,
                                       atol=REL * np.max(np.abs(w)),
                                       err_msg=f"{key}[{m}]")
    return got


@pytest.mark.parametrize("kind", ["kl", "mse", "cka"])
@pytest.mark.parametrize("rho, omega", [(1.0, 1.0), (0.9 ** 3, 0.9 ** 7),
                                        (0.9 ** 12, 0.9 ** 2), (1e-6, 1e-6)])
def test_matches_reference_on_four_modules(kind, rho, omega):
    _compare(SMALL, 11, kind, rho, omega)


@pytest.mark.parametrize("kind", ["kl", "mse", "cka"])
def test_matches_reference_on_ten_modules(kind):
    _compare(DEEP, 12, kind, 0.9 ** 4, 0.9 ** 5)


@pytest.mark.parametrize("kind", ["kl", "mse", "cka"])
def test_matches_reference_with_empty_sign_classes(kind):
    # Module 0 has no negative class, module 3 no positive class; module
    # 1 is all zeros and module 2 all NaN, so both of their classes are
    # empty and contribute exactly nothing.
    signs = {0: "+", 1: "0", 2: "nan", 3: "-"}
    gates = _compare(SMALL, 13, kind, 0.9 ** 2, 0.9, signs)["gates"]
    assert gates[1, 0] == 0.0
    assert gates[0, 3] == 0.0
    for m in (1, 2):
        np.testing.assert_array_equal(gates[:2, m], 0.0)


@pytest.mark.parametrize("spec, signs", [(SMALL, {0: "+", 2: "0"}),
                                         (DEEP, {1: "-", 4: "0", 7: "+"})])
def test_hardening_matches_reference(spec, signs):
    # train hardens from the stacked gate; each module's support, width,
    # scale and ranges must be what the per-module formulas give on the
    # final leaves.
    # 60 steps cool the gate to rho = 0.53, far enough from the starting
    # temperature that hardening at the wrong one moves some supports.
    base, tv, finetuned, x, _ = _problem(spec, 14, signs)
    res = train(tv, base, finetuned, x, spec,
                TrainConfig(steps=60, exemplar_count=12, batch_size=8))
    rho = temperature_schedule(60)
    for m, ((_, tau), (_, mod)) in enumerate(zip(tv.modules,
                                                 res.compressed.modules)):
        gate = res.gates[:, m]
        soft = soft_gate(tau, GateParams(*gate), rho).soft_mask
        np.testing.assert_array_equal(mod.support,
                                      np.flatnonzero(harden(soft)))
        bits = BitLogits(res.bits[m])
        assert mod.bit_width == select_bitwidth(bits)
        assert mod.scale == float(np.float32(ad._np(cr.softplus(gate[2]))))
        b = signed_bounds(tau)
        assert (mod.range_neg, mod.range_pos) == (
            float(np.float32(b.neg_max)), float(np.float32(b.pos_max)))
