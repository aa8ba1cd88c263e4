"""Compression training: config, objective, loop, finalization, transparency."""

import dataclasses
import math
import re

import numpy as np
import pytest

from taskswitch import autodiff as ad
from taskswitch import (
    CANDIDATE_WIDTHS,
    CompressedModule,
    MlpSpec,
    ParamSet,
    QuantSpec,
    StructureError,
    TaskVector,
    TrainConfig,
    TrainingDivergedError,
    add,
    build_switch,
    decode,
    init_params,
    materialize,
    quantize,
    signed_bounds,
    train,
)
from taskswitch import training
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
        obj = make_objective(SPEC, StackedModules.build(SPEC, base, tv),
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

    def test_cka_batch_of_one_refused_before_reference_outputs(
            self, monkeypatch):
        # centred features of one row are all zero: refused up front, not
        # by the loss at step 0
        base, tv, finetuned, exemplars = _setup()

        def unreached(*args):
            raise AssertionError("reference outputs computed")
        monkeypatch.setattr(training, "reference_outputs", unreached)
        with pytest.raises(ValueError, match="^the cka loss needs a batch "
                           "size of at least 2, got 1$"):
            train(tv, base, finetuned, exemplars, SPEC,
                  dataclasses.replace(self.CFG, loss_kind="cka",
                                      batch_size=1))

    @pytest.mark.parametrize("batch_size, rows, count", [
        (0, 24, 24), (4, 0, 24), (4, 24, 0)],
        ids=["zero-batch", "no-exemplar-rows", "zero-exemplar-count"])
    def test_empty_batch_or_exemplars_refused(self, batch_size, rows, count):
        base, tv, finetuned, exemplars = _setup()
        cfg = dataclasses.replace(self.CFG, batch_size=batch_size,
                                  exemplar_count=count)
        with pytest.raises(ValueError, match="^need a positive batch size "
                           "and exemplar count$"):
            train(tv, base, finetuned, exemplars[:rows], SPEC, cfg)

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

    @pytest.mark.parametrize("which", ["base", "finetuned", "tv"])
    @pytest.mark.parametrize("break_it, message", [
        (lambda mods: mods[:-1] + [(mods[-1][0], mods[-1][1][:-1])],
         "module 'layer1.bias': size 3 vs 2"),
        (lambda mods: mods[:-1], "module 'layer1.bias': module count 4 vs 3"),
        (lambda mods: mods + [("extra", np.zeros(2))],
         "module 'extra': module count 4 vs 5"),
        (lambda mods: mods[1::-1] + mods[2:],
         "module name mismatch: 'layer0.weight' vs 'layer0.bias'"),
    ], ids=["short", "missing", "extra", "swapped"])
    def test_each_misfit_input_names_the_module(self, which, break_it,
                                                message):
        # train checks none of its inputs itself: flatten does, in
        # StackedModules.build (base, tv) and reference_outputs (finetuned)
        inputs = dict(zip(("base", "tv", "finetuned"), _setup()[:3]))
        mods = break_it(inputs[which].modules)
        inputs[which] = (TaskVector("t0", mods) if which == "tv"
                         else ParamSet(mods))
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            train(inputs["tv"], inputs["base"], inputs["finetuned"],
                  _setup()[3], SPEC, self.CFG)


def _stacked_by_concatenation(base, tv) -> dict:
    """StackedModules.build's fields as the build made them from the task
    vector's own modules, concatenating base and tau unchecked, with the
    module names it kept: the oracle of the build from spec.offsets."""
    specs = [[QuantSpec.from_values(tau, b) for b in CANDIDATE_WIDTHS]
             for _, tau in tv.modules]
    quant = [[quantize(tau, q) for q in qs]
             for (_, tau), qs in zip(tv.modules, specs)]
    bounds = [signed_bounds(tau) for _, tau in tv.modules]
    sizes = np.array([tau.size for _, tau in tv.modules])
    has = np.array([[b.has_pos for b in bounds],
                    [b.has_neg for b in bounds]])
    live = np.repeat(has, sizes, axis=1)
    tau = np.concatenate([tau for _, tau in tv.modules])
    lo = np.array([[b.pos_min for b in bounds],
                   [b.neg_min for b in bounds]])
    ranges = np.array([[qs[0].range_pos for qs in specs],
                       [qs[0].range_neg for qs in specs]])
    width = ranges - lo
    return dict(names=tv.names, sizes=sizes,
                base=np.concatenate([v for _, v in base.modules]),
                signed=np.where(live, np.stack([tau, -tau]), 0.0),
                live=live.astype(np.float64), lo=lo, ranges=ranges,
                width=width, quant=np.concatenate(quant, axis=1),
                starts=np.cumsum(sizes) - sizes,
                denom=np.repeat(np.maximum(width, training.EPS_RANGE),
                                sizes, axis=1),
                bit_norm=float(len(tv.names) * max(CANDIDATE_WIDTHS)))


class TestStackedModules:
    @pytest.mark.parametrize("spec", [MlpSpec(),
                                      MlpSpec((5, 9, 7, 6, 3), "relu")],
                                 ids=["desk", "relu-4-layers"])
    @pytest.mark.parametrize("seed", range(3))
    def test_build_matches_concatenation_bit_for_bit(self, spec, seed):
        rng = np.random.default_rng(seed)
        base = init_params(spec, seed=seed)
        # a sign class empty, both empty, NaN: the live flags and bounds
        # of every case the build switches on
        fills = {1: np.abs, 2: lambda t: -np.abs(t), 3: lambda t: 0.0 * t,
                 4: lambda t: np.full_like(t, np.nan)}
        tv = TaskVector("t", [
            (name, fills.get((m + seed) % 6, lambda t: t)(
                rng.standard_normal(v.size)))
            for m, (name, v) in enumerate(base.modules)])
        want = _stacked_by_concatenation(base, tv)
        assert want.pop("names") == spec.module_names()
        got = StackedModules.build(spec, base, tv)
        assert [f.name for f in dataclasses.fields(got)] == list(want)
        for name, value in want.items():
            mine = getattr(got, name)
            if isinstance(value, float):
                assert type(mine) is float and mine == value, name
            else:
                assert (mine.dtype, mine.shape, mine.tobytes()) == \
                    (value.dtype, value.shape, value.tobytes()), name


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

    def test_final_values_scatter_values_at_support(self):
        # the full-length vector is values at support in a zero vector,
        # bit for bit, for every kind of module
        base, tv, finetuned, exemplars = _setup()
        trained = train(tv, base, finetuned, exemplars, SPEC,
                        TrainConfig(steps=20, exemplar_count=24, seed=0))
        empty = np.zeros(0, dtype=np.int64)
        mods = ([m for _, m in trained.compressed.modules]
                + [decode(e.data).module
                   for e in trained.compressed.to_streams()]
                + [m for _, m in build_switch(tv, alpha=0.5).modules]
                + [CompressedModule(5, empty, empty, 2, 1.0, 1.0, 0.5)])
        for mod in mods:
            want = np.zeros(mod.length)
            want[mod.support] = mod.values
            assert mod.final_values().tobytes() == want.tobytes()
        assert mods[-1].final_values().tobytes() == np.zeros(5).tobytes()

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
