"""Compression training: config, objective, loop, finalization, transparency."""

import dataclasses
import math

import numpy as np
import pytest

from taskswitch import autodiff as ad
from taskswitch import (
    CANDIDATE_WIDTHS,
    MlpSpec,
    StructureError,
    TaskVector,
    TrainConfig,
    TrainingDivergedError,
    add,
    decode,
    init_params,
    materialize,
    train,
)
from taskswitch.losses import reference_side
from taskswitch.training import (INIT_SCALE_LOGIT, StackedModules,
                                 make_objective, reference_outputs)


SPEC = MlpSpec((4, 6, 3))


def _setup(seed=0, tau_scale=0.5):
    rng = np.random.default_rng(seed)
    base = init_params(SPEC, seed=0)
    tv = TaskVector("t0", [(n, tau_scale * rng.normal(size=v.size))
                           for n, v in base.modules])
    finetuned = add(base, tv)
    exemplars = rng.normal(size=(24, 4))
    return base, tv, finetuned, exemplars


class TestConfig:
    def test_default_lambda_follows_loss_kind(self):
        assert TrainConfig(loss_kind="kl").lam == 0.3
        assert TrainConfig(loss_kind="mse").lam == 0.05
        assert TrainConfig(loss_kind="cka").lam == 3.0

    def test_explicit_zero_lambda_is_respected(self):
        # A falsy weight must not fall back to the default.
        assert TrainConfig(loss_kind="kl", preserve_weight=0.0).lam == 0.0

    def test_explicit_lambda_passes_through(self):
        assert TrainConfig(loss_kind="kl", preserve_weight=0.9).lam == 0.9


class TestObjective:
    def _objective(self, kind="kl", lam=0.3):
        base, tv, finetuned, exemplars = _setup()
        ref = reference_outputs(SPEC, finetuned, exemplars, kind)
        obj = make_objective(SPEC, StackedModules.build(base, tv),
                             reference_side(kind, ref, 4.0), exemplars, kind,
                             lam, 4.0, rho=1.0, omega=1.0)
        n_mod = len(tv.modules)
        leaves = {"gates": np.tile([[0.0], [0.0], [INIT_SCALE_LOGIT]], n_mod),
                  "bits": np.zeros((n_mod, 4))}
        return obj, leaves

    def test_parts_are_finite_and_composed(self):
        obj, leaves = self._objective()
        total, parts = obj(leaves)
        for key in ("sparsity", "bits", "preserve", "total"):
            assert np.isfinite(parts[key])
        assert parts["total"] == pytest.approx(
            parts["sparsity"] + parts["bits"] + 0.3 * parts["preserve"],
            rel=1e-12)
        assert 0.0 <= parts["sparsity"] <= 1.0
        assert 1 / 8 - 1e-12 <= parts["bits"] <= 1.0 + 1e-12

    def test_gradients_reach_gate_and_bit_leaves(self):
        obj, leaves = self._objective()
        tape = ad.Tape()
        lvars = {k: tape.var(v) for k, v in leaves.items()}
        tape.backward(obj(lvars)[0])
        for key, lv in lvars.items():
            assert lv.grad is not None, key
            assert np.all(np.isfinite(lv.grad)), key
        # Every module's gate column and width row gets a gradient.
        assert np.all(np.any(lvars["gates"].grad != 0.0, axis=0))
        assert np.all(np.any(lvars["bits"].grad != 0.0, axis=1))

    def test_all_three_loss_kinds_run(self):
        for kind, lam in (("kl", 0.3), ("mse", 0.05), ("cka", 3.0)):
            obj, leaves = self._objective(kind, lam)
            total = float(ad._np(obj(leaves)[0]))
            assert np.isfinite(total)


class TestTrainLoop:
    CFG = TrainConfig(steps=30, exemplar_count=24, seed=0)

    def test_deterministic_for_fixed_seed(self):
        base, tv, finetuned, exemplars = _setup()
        r1 = train(tv, base, finetuned, exemplars, SPEC, self.CFG)
        r2 = train(tv, base, finetuned, exemplars, SPEC, self.CFG)
        for (n1, m1), (n2, m2) in zip(r1.compressed.modules,
                                      r2.compressed.modules):
            assert n1 == n2 and m1.bit_width == m2.bit_width
            np.testing.assert_array_equal(m1.support, m2.support)
            np.testing.assert_array_equal(m1.bins, m2.bins)
            assert m1.scale == m2.scale

    def test_seed_changes_the_run(self):
        base, tv, finetuned, exemplars = _setup()
        r1 = train(tv, base, finetuned, exemplars, SPEC, self.CFG)
        r2 = train(tv, base, finetuned, exemplars, SPEC,
                   TrainConfig(steps=30, exemplar_count=24, seed=1))
        hist1 = [h["total"] for h in r1.history]
        hist2 = [h["total"] for h in r2.history]
        assert hist1 != hist2

    def test_history_and_schedules(self):
        base, tv, finetuned, exemplars = _setup()
        res = train(tv, base, finetuned, exemplars, SPEC, self.CFG)
        assert len(res.history) == 30
        for row in res.history:
            assert row["rho"] == pytest.approx(0.9 ** (row["step"] // 10))
            assert row["omega"] == pytest.approx(0.9 ** (row["step"] // 10))
            assert np.isfinite(row["total"])

    def test_compressed_structure(self):
        base, tv, finetuned, exemplars = _setup()
        res = train(tv, base, finetuned, exemplars, SPEC, self.CFG)
        comp = res.compressed
        assert comp.task_id == "t0"
        assert comp.names == [n for n, _ in tv.modules]
        assert comp.total_size() == tv.total_size()
        assert 0.0 <= comp.sparsity() <= 1.0
        for name, mod in comp.modules:
            assert mod.bit_width in CANDIDATE_WIDTHS
            assert np.all(np.diff(mod.support) > 0)
            if mod.nnz:
                assert mod.bins.min() >= 0
                assert mod.bins.max() < 2 ** mod.bit_width
            # Ranges and scale sit exactly on float32 values.
            for field in (mod.range_neg, mod.range_pos, mod.scale):
                assert field == float(np.float32(field))

    def test_exemplar_count_slices_input(self):
        base, tv, finetuned, exemplars = _setup()
        cfg_all = TrainConfig(steps=10, exemplar_count=24, seed=0)
        cfg_cut = TrainConfig(steps=10, exemplar_count=8, seed=0)
        r_cut = train(tv, base, finetuned, exemplars, SPEC, cfg_cut)
        r_same = train(tv, base, finetuned, exemplars[:8], SPEC, cfg_cut)
        assert [h["total"] for h in r_cut.history] == \
            [h["total"] for h in r_same.history]
        r_all = train(tv, base, finetuned, exemplars, SPEC, cfg_all)
        assert [h["total"] for h in r_all.history] != \
            [h["total"] for h in r_cut.history]

    def test_nan_task_vector_degrades_to_empty_gate(self):
        # NaN magnitudes fail both sign comparisons, so the gate sees two
        # empty classes and produces a zero mask; the run stays finite and
        # the poisoned module simply compresses to nothing.
        base, tv, finetuned, exemplars = _setup()
        bad = TaskVector("t0", [(n, np.full_like(v, np.nan) if i == 0 else v)
                                for i, (n, v) in enumerate(tv.modules)])
        res = train(bad, base, finetuned, exemplars, SPEC, self.CFG)
        assert res.compressed.modules[0][1].nnz == 0

    def test_divergence_raises_with_step(self):
        # A non-finite reference output poisons the preservation loss on
        # the very first batch.
        base, tv, finetuned, exemplars = _setup()
        poisoned = finetuned.copy()
        poisoned.get("layer1.bias")[0] = np.nan
        with pytest.raises(TrainingDivergedError) as err:
            train(tv, base, poisoned, exemplars, SPEC, self.CFG)
        assert err.value.step == 0
        assert not np.isfinite(err.value.components["total"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_overflow_raises_with_step(self):
        # a finite objective whose gradients square past float64's range;
        # the clip used to scale them by max_norm / inf, a zero step
        base, tv, finetuned, exemplars = _setup()
        cfg = dataclasses.replace(self.CFG, preserve_weight=1e300)
        with pytest.raises(TrainingDivergedError,
                           match="^gradient norm became non-finite at step "
                                 "0: ") as err:
            train(tv, base, finetuned, exemplars, SPEC, cfg)
        assert err.value.step == 0
        assert math.isfinite(err.value.components["total"])

    def test_misaligned_task_vector_rejected(self):
        base, tv, finetuned, exemplars = _setup()
        renamed = TaskVector("t0", [("other" + n, v)
                                    for n, v in tv.modules])
        with pytest.raises(ValueError):
            train(renamed, base, finetuned, exemplars, SPEC, self.CFG)
        # one element short: the size check names the module
        last, tau = tv.modules[-1]
        short = TaskVector("t0", tv.modules[:-1] + [(last, tau[:-1])])
        with pytest.raises(StructureError) as exc:
            train(short, base, finetuned, exemplars, SPEC, self.CFG)
        assert str(exc.value) == (f"module {last!r}: size {tau.size} vs "
                                  f"{tau.size - 1}")


class TestStreamTransparency:
    def test_memory_and_stream_agree_bit_for_bit(self):
        # The serialization boundary rounds ranges and scale to float32
        # during finalization, so the decoded stream must reproduce the
        # in-memory vector exactly, not approximately.
        base, tv, finetuned, exemplars = _setup()
        res = train(tv, base, finetuned, exemplars, SPEC, self.CFG
                    if hasattr(self, "CFG") else TrainConfig(
                        steps=30, exemplar_count=24, seed=0))
        comp = res.compressed
        streams = comp.to_streams()
        for (name, mod), enc in zip(comp.modules, streams):
            dec = decode(enc.data)
            np.testing.assert_array_equal(dec.module.support, mod.support)
            np.testing.assert_array_equal(dec.module.bins, mod.bins)
            np.testing.assert_array_equal(dec.final_values(),
                                          mod.final_values())
            assert dec.nnz == mod.nnz

    def test_apply_compressed_matches_vector_form(self):
        base, tv, finetuned, exemplars = _setup()
        res = train(tv, base, finetuned, exemplars, SPEC,
                    TrainConfig(steps=20, exemplar_count=24, seed=0))
        # Both paths multiply the weight into the scaled values w * (s * c),
        # so the in-place path and the materialized vector agree bit for
        # bit at any weight.
        for weight in (1.0, 0.8):
            direct = materialize(base, [res.compressed], [weight])
            via_vector = add(base, res.compressed.to_vector(), weight=weight)
            for (_, va), (_, vb) in zip(direct.modules, via_vector.modules):
                np.testing.assert_array_equal(va, vb)
