"""Synthetic benchmark tests: geometry, data generation, probes, baselines."""

import hashlib

import numpy as np
import pytest

from taskswitch import harness
from taskswitch.harness import (ETA_GRID, ProbeRow, ScaleRow,
                                SyntheticTaskSpec, base_dataset,
                                baseline_merge, fine_tune, gen_tasks,
                                probe_precision, probe_scale, probe_sparsity,
                                read_dataset, task_geometry, task_permutation,
                                unit_groups, write_dataset, write_tasks)
from taskswitch.model import MlpSpec, accuracy, flatten, init_params
from taskswitch.switch import build_switch
from taskswitch.training import TrainingDivergedError
from taskswitch.vectors import TaskVector, add


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = SyntheticTaskSpec()
        assert spec.num_tasks == 3 and spec.input_dim == 16
        assert spec.classes_per_task == 4

    def test_too_many_classes(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(input_dim=3, classes_per_task=4)

    def test_unreachable_gap(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(task_separation=1.0, min_task_gap=2.1)
        SyntheticTaskSpec(task_separation=1.0, min_task_gap=2.0)

    def test_empty_spec(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(num_tasks=0)
        with pytest.raises(ValueError):
            SyntheticTaskSpec(classes_per_task=0)


class TestGeometry:
    def test_centers_on_the_separation_sphere(self):
        spec = SyntheticTaskSpec()
        centers, offsets = task_geometry(spec)
        assert centers.shape == (3, 16)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1),
                                   spec.task_separation, rtol=1e-12)

    def test_pairwise_gaps_respected(self):
        spec = SyntheticTaskSpec(num_tasks=4)
        centers, _ = task_geometry(spec)
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        gaps[np.diag_indices_from(gaps)] = np.inf
        assert gaps.min() >= spec.min_task_gap

    def test_class_offsets_orthonormal_scaled(self):
        spec = SyntheticTaskSpec()
        _, offsets = task_geometry(spec)
        assert offsets.shape == (4, 16)
        gram = offsets @ offsets.T
        np.testing.assert_allclose(
            gram, spec.class_separation**2 * np.eye(4), atol=1e-9)

    def test_single_task_skips_gap_check(self):
        centers, _ = task_geometry(SyntheticTaskSpec(num_tasks=1))
        assert centers.shape == (1, 16)


class TestPermutation:
    def test_adjacent_swap(self):
        np.testing.assert_array_equal(task_permutation(0, 4), [1, 0, 2, 3])
        np.testing.assert_array_equal(task_permutation(1, 4), [0, 2, 1, 3])
        np.testing.assert_array_equal(task_permutation(3, 4), [3, 1, 2, 0])

    def test_wraps_modulo_class_count(self):
        np.testing.assert_array_equal(task_permutation(4, 4),
                                      task_permutation(0, 4))

    def test_is_an_involution(self):
        for k in range(5):
            perm = task_permutation(k, 5)
            np.testing.assert_array_equal(perm[perm], np.arange(5))


class TestGenTasks:
    SPEC = SyntheticTaskSpec()

    def test_shapes_and_labels(self):
        tasks = gen_tasks(self.SPEC)
        assert [t.task_id for t in tasks] == ["task0", "task1", "task2"]
        for t in tasks:
            assert t.train_x.shape == (2000, 16)
            assert t.test_x.shape == (500, 16)
            assert set(np.unique(t.train_y)) <= set(range(4))

    def test_exact_class_balance(self):
        # 2000 and 500 both divide by 4, and relabeling is a bijection.
        for t in gen_tasks(self.SPEC):
            assert np.bincount(t.train_y, minlength=4).tolist() == [500] * 4
            assert np.bincount(t.test_y, minlength=4).tolist() == [125] * 4

    def test_labels_follow_task_permutation(self):
        # the rows of each emitted label gather around the raw cluster
        # that task_permutation(k) relabels to it
        centers, offsets = task_geometry(self.SPEC)
        for k, t in enumerate(gen_tasks(self.SPEC)):
            raw = np.argsort(task_permutation(k, 4))   # label -> cluster
            for label in range(4):
                for x, y in ((t.train_x, t.train_y), (t.test_x, t.test_y)):
                    mean = x[y == label].mean(axis=0) - centers[k]
                    assert np.linalg.norm(offsets - mean, axis=1).argmin() \
                        == raw[label]

    def test_deterministic_per_seed(self):
        t1 = gen_tasks(self.SPEC)
        t2 = gen_tasks(self.SPEC)
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a.train_x, b.train_x)
            np.testing.assert_array_equal(a.train_y, b.train_y)
            np.testing.assert_array_equal(a.test_x, b.test_x)
        t3 = gen_tasks(SyntheticTaskSpec(seed=1))
        assert not np.array_equal(t1[0].train_x, t3[0].train_x)

    def test_base_dataset_spans_all_regions(self):
        spec = SyntheticTaskSpec(train_size=300, test_size=60)
        tr_x, tr_y, te_x, te_y = base_dataset(spec)
        assert tr_x.shape == (300, 16) and te_x.shape == (60, 16)
        assert set(np.unique(tr_y)) == set(range(4))
        # Samples cluster around three separated centers.
        centers, _ = task_geometry(spec)
        d = np.linalg.norm(tr_x[:, None] - centers[None], axis=2)
        assert set(np.unique(np.argmin(d, axis=1))) == {0, 1, 2}


class TestDatasetFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 5))
        y = rng.integers(4, size=20).astype(np.int64)
        path = tmp_path / "data.csv"
        write_dataset(path, x, y)
        rx, ry = read_dataset(path)
        np.testing.assert_array_equal(rx, x)  # 17 digits round-trips f64
        np.testing.assert_array_equal(ry, y)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_write_tasks_layout(self, tmp_path):
        spec = SyntheticTaskSpec(num_tasks=2, train_size=40, test_size=8)
        written = write_tasks(tmp_path, gen_tasks(spec))
        names = sorted(p.name for p in written)
        assert names == ["task0_test.csv", "task0_train.csv",
                         "task1_test.csv", "task1_train.csv"]
        x, y = read_dataset(tmp_path / "task1_train.csv")
        assert x.shape == (40, 16) and y.shape == (40,)


MSPEC = MlpSpec((8, 12, 2))


class TestFineTune:
    def test_zero_steps_returns_copy(self):
        params = init_params(MSPEC, seed=0)
        out = fine_tune(MSPEC, params, np.zeros((4, 8)), np.zeros(4, int),
                        steps=0)
        assert out is not params
        for (_, a), (_, b) in zip(out.modules, params.modules):
            np.testing.assert_array_equal(a, b)

    def test_zero_lr_is_a_fixed_point(self):
        params = init_params(MSPEC, seed=0)
        rng = np.random.default_rng(1)
        out = fine_tune(MSPEC, params, rng.normal(size=(16, 8)),
                        rng.integers(2, size=16), steps=5, lr=0.0)
        for (_, a), (_, b) in zip(out.modules, params.modules):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_per_seed(self):
        params = init_params(MSPEC, seed=0)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(32, 8)), rng.integers(2, size=32)
        o1 = fine_tune(MSPEC, params, x, y, steps=10, seed=3)
        o2 = fine_tune(MSPEC, params, x, y, steps=10, seed=3)
        for (_, a), (_, b) in zip(o1.modules, o2.modules):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_last_step_names_it(self):
        # the step's loss is finite; no later loss sees its update
        params = init_params(MSPEC, seed=0)
        rng = np.random.default_rng(4)
        with pytest.raises(TrainingDivergedError,
                           match="^parameters became non-finite at step 0: "):
            fine_tune(MSPEC, params, rng.normal(size=(16, 8)),
                      rng.integers(2, size=16), steps=1, lr=np.inf,
                      optimizer="sgd")

    def test_unknown_optimizer(self):
        params = init_params(MSPEC, seed=0)
        with pytest.raises(ValueError):
            fine_tune(MSPEC, params, np.zeros((4, 8)), np.zeros(4, int),
                      optimizer="lbfgs")

    def test_learns_separated_clusters(self):
        # One region, two orthogonal class offsets well above the noise.
        spec = SyntheticTaskSpec(num_tasks=1, input_dim=8,
                                 classes_per_task=2, train_size=400,
                                 test_size=200, seed=2)
        task = gen_tasks(spec)[0]
        params = fine_tune(MSPEC, init_params(MSPEC, seed=0),
                           task.train_x, task.train_y, steps=300, lr=0.01)
        assert accuracy(MSPEC, params, task.test_x, task.test_y) >= 0.95

    def test_no_signal_stays_near_chance(self):
        spec = SyntheticTaskSpec(num_tasks=1, input_dim=8,
                                 classes_per_task=2, class_separation=0.0,
                                 train_size=400, test_size=200, seed=3)
        task = gen_tasks(spec)[0]
        params = fine_tune(MSPEC, init_params(MSPEC, seed=0),
                           task.train_x, task.train_y, steps=300, lr=0.01)
        assert accuracy(MSPEC, params, task.test_x, task.test_y) <= 0.65


class TestUnitGroups:
    NAMES = ["layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"]

    def test_module_level(self):
        assert unit_groups(self.NAMES, "module") == [
            (n, [n]) for n in self.NAMES]

    def test_layer_level(self):
        assert unit_groups(self.NAMES, "layer") == [
            ("layer0", ["layer0.weight", "layer0.bias"]),
            ("layer1", ["layer1.weight", "layer1.bias"])]

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            unit_groups(self.NAMES, "tensor")


PSPEC = MlpSpec((4, 6, 3))


def _probe_setup(signed_unit=False, seed=7, spec=PSPEC):
    rng = np.random.default_rng(seed)
    base = init_params(spec, seed=0)
    modules = []
    for name, v in base.modules:
        tau = (rng.choice([-1.0, 1.0], size=v.size) if signed_unit
               else rng.normal(size=v.size))
        modules.append((name, tau))
    tv = TaskVector("t0", modules)
    x = rng.normal(size=(40, 4))
    y = rng.integers(3, size=40)
    return base, tv, x, y


def _digest_score(spec, params, x, y):
    """A stand-in for accuracy that tells apart any two parameter sets."""
    digest = hashlib.sha256(flatten(spec, params).tobytes()).digest()
    return float(int.from_bytes(digest[:6], "big"))


class TestProbes:
    def test_keep_all_prune_has_zero_drop(self):
        base, tv, x, y = _probe_setup()
        ref, rows = probe_sparsity(PSPEC, base, tv, x, y, alpha=0.0)
        assert [r.unit for r in rows] == tv.names
        for r in rows:
            assert r.accuracy == ref and r.drop == 0.0

    def test_binarization_fixed_point(self):
        # Unit-magnitude signed deltas binarize to themselves, so neither
        # probe can move the accuracy.
        base, tv, x, y = _probe_setup(signed_unit=True)
        ref, rows = probe_precision(PSPEC, base, tv, x, y, level="layer")
        assert [r.unit for r in rows] == ["layer0", "layer1"]
        for r in rows:
            assert r.drop == 0.0
        ref2, srows, _ = probe_scale(PSPEC, base, tv, x, y)
        assert ref2 == ref
        (one,) = [r for r in srows if r.eta == 1.0]
        assert one.accuracy == ref and one.drop == 0.0

    def test_zero_delta_scale_probe_is_flat(self):
        base, _, x, y = _probe_setup()
        tv = TaskVector("t0", [(n, np.zeros_like(v))
                               for n, v in base.modules])
        ref, rows, best = probe_scale(PSPEC, base, tv, x, y)
        base_acc = accuracy(PSPEC, base, x, y)
        assert ref == base_acc
        assert all(r.accuracy == base_acc and r.drop == 0.0 for r in rows)
        assert best == 0.1  # accuracy ties resolve to the smallest eta

    def test_zero_eta_recovers_base(self):
        base, tv, x, y = _probe_setup()
        _, rows, _ = probe_scale(PSPEC, base, tv, x, y, etas=(0.0, 1.0))
        assert rows[0].eta == 0.0
        assert rows[0].accuracy == accuracy(PSPEC, base, x, y)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("score", ["accuracy", "parameter-digest"])
    def test_probe_rows_match_the_dense_route(self, monkeypatch, activation,
                                              score):
        # the oracle adds every densified switch with add(); the digest
        # score makes a row equal only when the probed parameters are
        # equal bit for bit
        if score == "parameter-digest":
            monkeypatch.setattr(harness, "accuracy", _digest_score)
        measure = harness.accuracy
        for seed in range(3):
            spec = MlpSpec((4, 5, 6, 3), activation)
            base, tv, x, y = _probe_setup(seed=seed, spec=spec)
            ref = measure(spec, add(base, tv, 1.0), x, y)
            binary = build_switch(tv, alpha=0.0).to_vector()
            want = [ScaleRow(eta, a, ref - a) for eta in ETA_GRID
                    for a in [measure(spec, add(base, binary, eta), x, y)]]
            assert probe_scale(spec, base, tv, x, y)[:2] == (ref, want)
            for level in ("module", "layer"):
                want = []
                for unit, members in unit_groups(tv.names, level):
                    mods = [(n, build_switch(TaskVector("t", [(n, v)]), 0.0)
                             .to_vector().modules[0][1]
                             if n in members else v) for n, v in tv.modules]
                    a = measure(spec, add(base, TaskVector("t", mods)), x, y)
                    want.append(ProbeRow(unit, a, ref - a))
                assert probe_precision(spec, base, tv, x, y, level) == \
                    (ref, want)

    def test_eta_grid_constants(self):
        assert len(ETA_GRID) == 20
        assert ETA_GRID[0] == 0.1 and ETA_GRID[-1] == 2.0


class TestBaselineMerge:
    def _vectors(self):
        rng = np.random.default_rng(9)
        base = init_params(PSPEC, seed=1)
        tvs = [TaskVector(f"t{i}", [(n, rng.normal(size=v.size))
                                    for n, v in base.modules])
               for i in range(2)]
        return base, tvs

    def test_single_task_average_is_the_finetune(self):
        base, tvs = self._vectors()
        merged = baseline_merge(base, tvs[:1], mode="weight-average")
        finetuned = add(base, tvs[0], 1.0)
        for (_, a), (_, b) in zip(merged.modules, finetuned.modules):
            np.testing.assert_array_equal(a, b)

    def test_weight_average_formula(self):
        base, tvs = self._vectors()
        merged = baseline_merge(base, tvs, mode="weight-average")
        for i, (name, v) in enumerate(base.modules):
            want = v + 0.5 * tvs[0].modules[i][1] + 0.5 * tvs[1].modules[i][1]
            np.testing.assert_allclose(merged.modules[i][1], want,
                                       rtol=1e-12)

    def test_task_arithmetic_scale(self):
        base, tvs = self._vectors()
        merged = baseline_merge(base, tvs, mode="task-arithmetic", scale=0.7)
        seq = add(add(base, tvs[0], 0.7), tvs[1], 0.7)
        for (_, a), (_, b) in zip(merged.modules, seq.modules):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        base, tvs = self._vectors()
        with pytest.raises(ValueError):
            baseline_merge(base, [], mode="weight-average")
        with pytest.raises(ValueError):
            baseline_merge(base, tvs, mode="fisher")
