"""Dynamic-merging tests: clustering, retrieval weights, metric training."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from taskswitch import autodiff as ad
from taskswitch import codec, merging
from taskswitch.codec import (CapacityError, CodecError, Format, choose_format,
                              encode_dense)
from taskswitch.container import load_container, save_container
from taskswitch.merging import (_BLOCK_ROWS, DIST_EPS, NUM_FLOOR,
                                ReferenceIndex, _mixed_logits, build_index,
                                init_projection, kmeans, knn_weights,
                                load_index, materialize, merged_forward,
                                metric_objective, save_index, train_metric)
from taskswitch.model import (MlpSpec, features, flatten, forward,
                              init_params)
from taskswitch.training import (CompressedModule, CompressedTaskVector,
                                 TrainingDivergedError)
from taskswitch.vectors import ParamSet, StructureError
from composed_reference import projected_distances


class TestKmeans:
    def test_k_equals_n_returns_the_points(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(8, 3))
        centers, assign = kmeans(points, k=8, seed=0)
        got = sorted(map(tuple, centers))
        want = sorted(map(tuple, points))
        assert got == want
        for i in range(8):
            np.testing.assert_array_equal(centers[assign[i]], points[i])

    def test_k_one_is_the_mean(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(12, 4))
        centers, assign = kmeans(points, k=1, seed=3)
        np.testing.assert_array_equal(centers[0], points.mean(axis=0))
        assert np.all(assign == 0)

    def test_recovers_two_separated_blobs(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 2)) + np.array([0.0, 0.0])
        b = rng.normal(size=(30, 2)) + np.array([100.0, 100.0])
        points = np.vstack([a, b])
        centers, assign = kmeans(points, k=2, seed=0)
        # Each blob lands in one cluster whose center is its mean.
        assert len(set(assign[:30])) == 1 and len(set(assign[30:])) == 1
        assert assign[0] != assign[30]
        np.testing.assert_allclose(centers[assign[0]], a.mean(axis=0),
                                   atol=1e-9)
        np.testing.assert_allclose(centers[assign[30]], b.mean(axis=0),
                                   atol=1e-9)

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 5))
        c1, a1 = kmeans(points, k=6, seed=7)
        c2, a2 = kmeans(points, k=6, seed=7)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_duplicate_points_with_excess_k_terminates(self):
        # Only two distinct rows but k=3: some cluster is permanently empty
        # and gets reseeded each sweep, which must not prevent convergence.
        points = np.array([[0.0, 0.0]] * 4 + [[10.0, 10.0]] * 2)
        centers, assign = kmeans(points, k=3, seed=0)
        assert assign.shape == (6,) and np.all((0 <= assign) & (assign < 3))
        for row in centers:
            assert tuple(row) in {(0.0, 0.0), (10.0, 10.0)}
        for i in range(6):
            np.testing.assert_array_equal(centers[assign[i]], points[i])

    def test_k_out_of_range(self):
        points = np.zeros((5, 2))
        with pytest.raises(ValueError):
            kmeans(points, k=0, seed=0)
        with pytest.raises(ValueError):
            kmeans(points, k=6, seed=0)


def _oracle_weights(index: ReferenceIndex, feats: np.ndarray,
                    n_neighbors: int) -> np.ndarray:
    """Independent per-row reimplementation of the retrieval weights."""
    proj = index.projection
    pf = feats @ proj.T
    pc = index.centers @ proj.T
    f2 = np.sum(pf * pf, axis=1, keepdims=True)
    c2 = np.sum(pc * pc, axis=1, keepdims=True)
    d2 = (f2 + c2.T) + (pf @ pc.T) * -2.0
    d = np.sqrt(np.maximum(d2, 1e-30))
    out = np.zeros((feats.shape[0], index.n_tasks))
    for i in range(feats.shape[0]):
        order = sorted(range(index.centers.shape[0]),
                       key=lambda j: (d[i, j], j))[:n_neighbors]
        counts = [0] * index.n_tasks
        for j in order:
            counts[int(index.labels[j])] += 1
        row = [c / float(n_neighbors) for c in counts]
        last = max(k for k in range(index.n_tasks) if counts[k])
        before = 0.0  # left-to-right like the cumsum in the implementation
        for t in range(last):
            before += row[t]
        row[last] = 1.0 - before if last else 1.0
        out[i] = row
    return out


class TestKnnWeights:
    def _random_index(self, rng, n_refs, e, rank, n_tasks):
        labels = rng.integers(n_tasks, size=n_refs).astype(np.int64)
        labels[0] = 0  # keep ordinal 0 occupied
        return ReferenceIndex(
            task_ids=[f"t{k}" for k in range(n_tasks)],
            centers=rng.normal(size=(n_refs, e)),
            labels=labels,
            projection=rng.normal(size=(rank, e)))

    def test_rows_sum_to_exactly_one(self):
        rng = np.random.default_rng(10)
        idx = self._random_index(rng, n_refs=9, e=4, rank=3, n_tasks=3)
        w = knn_weights(idx, rng.normal(size=(50, 4)), n_neighbors=7)
        assert np.all(np.sum(w, axis=1) == 1.0)

    def test_matches_independent_oracle(self):
        for trial in range(50):
            rng = np.random.default_rng(100 + trial)
            n_refs = int(rng.integers(3, 21))
            e = int(rng.integers(2, 7))
            n_tasks = int(rng.integers(1, 4))
            idx = self._random_index(rng, n_refs, e,
                                     rank=int(rng.integers(1, 5)),
                                     n_tasks=n_tasks)
            feats = rng.normal(size=(int(rng.integers(1, 9)), e))
            c = int(rng.integers(1, n_refs + 1))
            np.testing.assert_array_equal(
                knn_weights(idx, feats, n_neighbors=c),
                _oracle_weights(idx, feats, c))

    def test_distance_tie_goes_to_lower_ordinal(self):
        # refs 0 and 1 coincide; the single neighbor must be ref 0, whose
        # label routes the whole weight to task "b".
        idx = ReferenceIndex(task_ids=["a", "b"],
                             centers=np.array([[1.0, 0.0], [1.0, 0.0],
                                               [5.0, 5.0]]),
                             labels=np.array([1, 0, 0]),
                             projection=np.eye(2))
        w = knn_weights(idx, np.array([[0.0, 0.0]]), n_neighbors=1)
        np.testing.assert_array_equal(w, [[0.0, 1.0]])

    # Query (0, 0): refs 1-4 all sit at distance exactly 1 with labels
    # c, b, a, b; refs 0 and 5 sit at distance exactly 3 with labels a, c.
    # Sorted by (distance, ordinal) the neighbors are refs 1, 2, 3, 4, 0, 5.
    RING = ReferenceIndex(task_ids=["a", "b", "c"],
                          centers=np.array([[3.0, 0], [0, 1.0], [-1.0, 0],
                                            [0, -1.0], [1.0, 0], [0, 3.0]]),
                          labels=np.array([0, 2, 1, 0, 1, 2]),
                          projection=np.eye(2))
    RING_ROWS = {
        1: [0.0, 0.0, 1.0],
        2: [0.0, 0.5, 0.5],
        3: [1 / 3, 1 / 3, 1.0 - (1 / 3 + 1 / 3)],
        4: [0.25, 0.5, 0.25],
        5: [0.4, 0.4, 1.0 - (0.4 + 0.4)],
        6: [1 / 3, 1 / 3, 1.0 - (1 / 3 + 1 / 3)],
    }

    @pytest.mark.parametrize("c", range(1, 7))
    def test_equal_distances_straddling_the_cut(self, c):
        q = np.zeros((1, 2))
        w = knn_weights(self.RING, q, n_neighbors=c)
        np.testing.assert_array_equal(w, [self.RING_ROWS[c]])
        np.testing.assert_array_equal(w, _oracle_weights(self.RING, q, c))

    def test_duplicated_centers_fill_from_the_lowest_ordinal(self):
        # refs 0-2 coincide with labels b, a, c; ref 3 is farther
        idx = ReferenceIndex(task_ids=["a", "b", "c"],
                             centers=np.array([[1.0, 1.0]] * 3
                                              + [[2.0, 2.0]]),
                             labels=np.array([1, 0, 2, 0]),
                             projection=np.eye(2))
        q = np.zeros((1, 2))
        want = {1: [0.0, 1.0, 0.0],
                2: [0.5, 0.5, 0.0],
                3: [1 / 3, 1 / 3, 1.0 - (1 / 3 + 1 / 3)],
                4: [0.5, 0.25, 0.25]}
        for c, row in want.items():
            w = knn_weights(idx, q, n_neighbors=c)
            np.testing.assert_array_equal(w, [row])
            np.testing.assert_array_equal(w, _oracle_weights(idx, q, c))

    def test_duplicated_centers_match_oracle_at_every_count(self):
        # every center appears two or three times under different labels,
        # so projected ties are exact whatever the projection
        for trial in range(10):
            rng = np.random.default_rng(200 + trial)
            e, n_tasks = 3, 4
            distinct = rng.normal(size=(int(rng.integers(2, 6)), e))
            reps = rng.integers(2, 4, size=distinct.shape[0])
            centers = np.repeat(distinct, reps, axis=0)
            idx = ReferenceIndex(
                task_ids=[f"t{k}" for k in range(n_tasks)],
                centers=centers,
                labels=rng.integers(n_tasks, size=centers.shape[0]),
                projection=rng.normal(size=(2, e)))
            # queries on top of a center put several refs at distance ~0
            feats = np.vstack([rng.normal(size=(5, e)), distinct[:2]])
            for c in range(1, centers.shape[0] + 1):
                np.testing.assert_array_equal(
                    knn_weights(idx, feats, n_neighbors=c),
                    _oracle_weights(idx, feats, c))

    def test_rows_across_blocks_match_oracle(self):
        # more rows than one block, ending in a partial one; every third
        # query sits on a duplicated center, so ties straddle the cut in
        # every block
        rng = np.random.default_rng(14)
        distinct = rng.normal(size=(6, 3))
        idx = ReferenceIndex(task_ids=["a", "b", "c"],
                             centers=np.repeat(distinct, 3, axis=0),
                             labels=rng.permutation(np.arange(18) % 3),
                             projection=rng.normal(size=(2, 3)))
        n = 2 * _BLOCK_ROWS + 37
        feats = rng.normal(size=(n, 3))
        feats[::3] = distinct[rng.integers(0, 6, size=len(feats[::3]))]
        w = knn_weights(idx, feats, n_neighbors=4)
        assert len(np.unique(w, axis=0)) > 3
        np.testing.assert_array_equal(w, _oracle_weights(idx, feats, 4))
        for i in (0, _BLOCK_ROWS - 1, _BLOCK_ROWS, n - 1):
            np.testing.assert_array_equal(
                knn_weights(idx, feats[i], n_neighbors=4), w[i:i + 1])

    def test_remainder_lands_on_last_occupied_task(self):
        # counts (1, 1, 1) over 3 neighbors: naive thirds do not sum to 1
        # in floats, so the last task absorbs the rounding.
        idx = ReferenceIndex(task_ids=["a", "b", "c"],
                             centers=np.array([[1.0, 0], [2.0, 0], [3.0, 0]]),
                             labels=np.array([0, 1, 2]),
                             projection=np.eye(2))
        w = knn_weights(idx, np.array([[0.0, 0.0]]), n_neighbors=3)
        third = 1 / 3.0
        assert w[0, 0] == third and w[0, 1] == third
        assert w[0, 2] == 1.0 - (third + third)
        assert np.sum(w[0]) == 1.0

    def test_projection_scale_invariance(self):
        rng = np.random.default_rng(11)
        idx = self._random_index(rng, n_refs=12, e=5, rank=3, n_tasks=3)
        feats = rng.normal(size=(20, 5))
        w0 = knn_weights(idx, feats, n_neighbors=5)
        for s in (1e-3, 7.3, 1e3):
            scaled = ReferenceIndex(idx.task_ids, idx.centers, idx.labels,
                                    s * idx.projection)
            np.testing.assert_array_equal(
                knn_weights(scaled, feats, n_neighbors=5), w0)

    def test_single_row_input_is_promoted(self):
        rng = np.random.default_rng(12)
        idx = self._random_index(rng, n_refs=6, e=3, rank=2, n_tasks=2)
        w = knn_weights(idx, rng.normal(size=3), n_neighbors=2)
        assert w.shape == (1, 2)

    def test_neighbor_count_validation(self):
        rng = np.random.default_rng(13)
        idx = self._random_index(rng, n_refs=4, e=3, rank=2, n_tasks=2)
        feats = rng.normal(size=(2, 3))
        with pytest.raises(ValueError):
            knn_weights(idx, feats, n_neighbors=0)
        with pytest.raises(ValueError):
            knn_weights(idx, feats, n_neighbors=5)


def test_metric_distance_hand_case():
    proj = np.array([[1.0, 0.0], [0.0, 2.0]])
    d = projected_distances(proj, np.array([[3.0, 4.0]]),
                            np.array([[1.0, 1.0]]))
    assert d.shape == (1, 1)
    assert d[0, 0] == pytest.approx(math.sqrt(2.0**2 + 6.0**2))


class TestMetricObjective:
    def test_all_neighbors_correct_gives_zero(self):
        rng = np.random.default_rng(20)
        refs0 = rng.normal(scale=0.5, size=(3, 2)) + [10.0, 0.0]
        refs1 = rng.normal(scale=0.5, size=(3, 2)) + [-10.0, 0.0]
        feats = np.vstack([rng.normal(scale=0.5, size=(4, 2)) + [10.0, 0.0],
                           rng.normal(scale=0.5, size=(4, 2)) + [-10.0, 0.0]])
        loss = metric_objective(np.eye(2), feats, np.vstack([refs0, refs1]),
                                labels=np.array([0, 0, 0, 1, 1, 1]),
                                task_of_row=np.array([0] * 4 + [1] * 4),
                                n_neighbors=3)
        assert float(ad._np(loss)) == 0.0
        assert math.copysign(1.0, loss) == 1.0

    def test_even_split_is_log_two(self):
        # Both neighbors equidistant, one correct: ratio is exactly 1/2.
        loss = metric_objective(np.eye(2), np.array([[0.0, 0.0]]),
                                np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                labels=np.array([0, 1]),
                                task_of_row=np.array([0]),
                                n_neighbors=2)
        assert float(ad._np(loss)) == pytest.approx(math.log(2.0),
                                                    rel=0, abs=1e-15)

    def test_zero_correct_mass_stays_finite(self):
        loss = metric_objective(np.eye(2), np.array([[0.0, 0.0]]),
                                np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                labels=np.array([1, 1]),
                                task_of_row=np.array([0]),
                                n_neighbors=2)
        val = float(ad._np(loss))
        assert np.isfinite(val) and val > 10.0

    def test_ratio_capped_where_the_mass_falls_below_the_floor(self):
        # Both references 1e31 away: the inverse-distance mass 2e-31 is
        # below NUM_FLOOR, so the floored ratio would be 5 and the loss
        # negative. Capped, the row adds nothing and passes no gradient.
        def obj(lv):
            return metric_objective(lv["p"], np.array([[0.0, 0.0]]),
                                    np.array([[1e31, 0.0], [-1e31, 0.0]]),
                                    labels=np.array([0, 1]),
                                    task_of_row=np.array([0]), n_neighbors=2)
        loss, grads = ad.value_and_grad(obj, {"p": np.eye(2)})
        assert float(ad._np(loss)) == 0.0
        np.testing.assert_array_equal(grads["p"], 0.0)

    @staticmethod
    def _hand_loss(d, labels, task_of_row, c, key):
        """The ratio loss with each row's C neighbors sorted by key(d, j)."""
        mask_all = np.zeros_like(d)
        for i in range(d.shape[0]):
            order = sorted(range(d.shape[1]), key=lambda j: key(d[i, j], j))
            mask_all[i, order[:c]] = 1.0
        mask_correct = mask_all * (labels[None, :] == task_of_row[:, None])
        inv = 1.0 / np.maximum(d, DIST_EPS)
        ratio = (np.maximum(np.sum(inv * mask_correct, axis=1), NUM_FLOOR)
                 / np.sum(inv * mask_all, axis=1))
        return (np.sum(np.log(ratio)) / float(d.shape[0])) * -1.0

    def test_ties_at_the_cut_go_to_the_lower_ordinal(self):
        # every center appears two or three times under different labels,
        # so duplicates tie exactly whatever the projection and straddle the
        # C-th distance for most C; the loss must follow the (d, j) order
        # knn_weights uses, and the opposite tie rule must give another loss
        rng = np.random.default_rng(31)
        e = 3
        distinct = rng.normal(size=(3, e))
        centers = np.repeat(distinct, [2, 3, 2], axis=0)
        labels = np.array([1, 0, 2, 0, 1, 2, 0])
        feats = np.vstack([rng.normal(size=(6, e)), distinct])
        task_of_row = np.arange(feats.shape[0]) % 3
        proj = rng.normal(size=(2, e))
        d = projected_distances(proj, feats, centers)
        differs = 0
        for c in range(1, centers.shape[0] + 1):
            got = float(ad._np(metric_objective(proj, feats, centers, labels,
                                                task_of_row, c)))
            assert got == self._hand_loss(d, labels, task_of_row, c,
                                          lambda dj, j: (dj, j))
            differs += got != self._hand_loss(d, labels, task_of_row, c,
                                              lambda dj, j: (dj, -j))
        assert differs >= 3


def _blob_problem(seed=0):
    # Overlapping blobs: the initial random projection misranks some
    # neighbors, so the starting loss is positive and trainable.
    rng = np.random.default_rng(seed)
    f0 = rng.normal(size=(12, 4)) + np.array([1.0, 0, 0, 0])
    f1 = rng.normal(size=(12, 4)) + np.array([-1.0, 0, 0, 0])
    index = ReferenceIndex(
        task_ids=["a", "b"],
        centers=np.vstack([f0[:4], f1[:4]]),
        labels=np.array([0] * 4 + [1] * 4),
        projection=np.eye(4))
    task_features = [("a", f0), ("b", f1)]
    return index, task_features


class TestTrainMetric:
    def test_loss_decreases_on_separable_features(self):
        index, task_features = _blob_problem()
        res = train_metric(index, task_features, rank=2, epochs=20, lr=0.1,
                           n_neighbors=3, seed=0)
        assert len(res.losses) == 20
        assert res.losses[-1] < res.losses[0]
        assert all(np.isfinite(v) for v in res.losses)

    def test_no_negative_loss_after_a_blown_up_step(self):
        # lr 1e30 throws the projection far out; rows whose distances pass
        # about 1e30 must not log a loss below zero
        index, task_features = _blob_problem()
        res = train_metric(index, task_features, rank=2, epochs=3, lr=1e30,
                           n_neighbors=3, seed=0)
        assert all(v >= 0.0 for v in res.losses), res.losses

    def test_infinite_step_size_raises_at_epoch_0(self):
        # the first loss is finite; the update lr * m / sqrt(v) is not
        index, task_features = _blob_problem()
        with pytest.raises(TrainingDivergedError,
                           match="^projection became non-finite at epoch "
                                 "0: ") as err:
            train_metric(index, task_features, rank=2, epochs=3, lr=np.inf,
                         n_neighbors=3, seed=0)
        assert err.value.step == 0
        assert math.isfinite(err.value.components["loss"])

    def test_first_loss_is_pre_update(self):
        index, task_features = _blob_problem()
        res = train_metric(index, task_features, rank=2, epochs=3, lr=0.1,
                           n_neighbors=3, seed=4)
        feats = np.vstack([f for _, f in task_features])
        task_of_row = np.array([0] * 12 + [1] * 12)
        expected = metric_objective(init_projection(2, 4, seed=4), feats,
                                    index.centers, index.labels, task_of_row,
                                    n_neighbors=3)
        assert res.losses[0] == float(ad._np(expected))

    def test_deterministic_per_seed(self):
        index, task_features = _blob_problem()
        r1 = train_metric(index, task_features, rank=2, epochs=5,
                          n_neighbors=3, seed=1)
        r2 = train_metric(index, task_features, rank=2, epochs=5,
                          n_neighbors=3, seed=1)
        assert r1.losses == r2.losses
        np.testing.assert_array_equal(r1.index.projection,
                                      r2.index.projection)
        r3 = train_metric(index, task_features, rank=2, epochs=5,
                          n_neighbors=3, seed=2)
        assert not np.array_equal(r1.index.projection, r3.index.projection)

    def test_result_keeps_references_and_shapes(self):
        index, task_features = _blob_problem()
        res = train_metric(index, task_features, rank=3, epochs=2,
                           n_neighbors=3, seed=0)
        assert res.index.task_ids == index.task_ids
        np.testing.assert_array_equal(res.index.centers, index.centers)
        np.testing.assert_array_equal(res.index.labels, index.labels)
        assert res.index.projection.shape == (3, 4)

    def test_task_mismatch_raises(self):
        index, task_features = _blob_problem()
        with pytest.raises(StructureError):
            train_metric(index, list(reversed(task_features)), rank=2,
                         epochs=1)


def _quantized(length, support, bins, width, scale):
    return CompressedModule(length, np.asarray(support, dtype=np.int64),
                            np.asarray(bins, dtype=np.int64), width,
                            range_neg=2.0 ** width, range_pos=2.0 ** width,
                            scale=scale)


def _sparse(task_id, specs):
    """specs: (length, support, values) per module, values all +-scale.

    Each module is width 1 with bin centers -1 and +1, so every value is
    exactly representable.
    """
    mods = []
    for i, (length, support, values) in enumerate(specs):
        values = np.asarray(values, dtype=np.float64)
        scale = float(np.abs(values).max())
        assert np.all(np.abs(values) == scale)
        mods.append((f"m{i}",
                     _quantized(length, support, values > 0.0, 1, scale)))
    return CompressedTaskVector(task_id, mods)


class TestMaterialize:
    BASE = ParamSet([("m0", np.array([1.0, 2.0, 3.0])),
                     ("m1", np.array([0.0, 0.0]))])

    def test_hand_combination(self):
        va = _sparse("a", [(3, [0, 2], [1.0, -1.0]), (2, [1], [4.0])])
        vb = _sparse("b", [(3, [1], [10.0]), (2, [0], [2.0])])
        out = materialize(self.BASE, [va, vb], np.array([2.0, 0.5]))
        np.testing.assert_array_equal(out.get("m0"), [3.0, 7.0, 1.0])
        np.testing.assert_array_equal(out.get("m1"), [1.0, 8.0])

    def test_zero_weight_skips_the_bundle(self):
        bogus = _sparse("junk", [(99, [0], [1.0])])
        out = materialize(self.BASE, [bogus], np.array([0.0]))
        np.testing.assert_array_equal(out.get("m0"), self.BASE.get("m0"))

    def test_base_is_not_mutated(self):
        va = _sparse("a", [(3, [0], [5.0]), (2, [1], [5.0])])
        before = self.BASE.get("m0").copy()
        materialize(self.BASE, [va], np.array([1.0]))
        np.testing.assert_array_equal(self.BASE.get("m0"), before)

    def test_weight_shape_validation(self):
        va = _sparse("a", [(3, [0], [1.0]), (2, [0], [1.0])])
        with pytest.raises(StructureError):
            materialize(self.BASE, [va], np.array([1.0, 2.0]))

    def test_structure_mismatch_raises(self):
        short = _sparse("a", [(3, [0], [1.0])])
        with pytest.raises(StructureError):
            materialize(self.BASE, [short], np.array([1.0]))
        wrong_len = _sparse("a", [(4, [0], [1.0]), (2, [0], [1.0])])
        with pytest.raises(StructureError):
            materialize(self.BASE, [wrong_len], np.array([1.0]))
        renamed = _sparse("a", [(3, [0], [1.0]), (2, [0], [1.0])])
        renamed.modules.reverse()
        with pytest.raises(StructureError, match="^bundle 'a': module name "
                           "mismatch: 'm0' vs 'm1'$"):
            materialize(self.BASE, [renamed], np.array([1.0]))


SPEC = MlpSpec((4, 6, 3))


def _model_setup(seed=0):
    rng = np.random.default_rng(seed)
    base = init_params(SPEC, seed=seed)
    vectors = []
    for tid in ("a", "b"):
        mods = []
        for name, v in base.modules:
            support = np.sort(rng.choice(v.size, size=max(1, v.size // 3),
                                         replace=False))
            # width 4 over [-16, 16]: values 0.05 * odd integers in +-15
            mods.append((name, _quantized(
                v.size, support, rng.integers(0, 16, support.size), 4,
                0.05)))
        vectors.append(CompressedTaskVector(tid, mods))
    exemplars = [("a", rng.normal(size=(10, 4)) + 1.0),
                 ("b", rng.normal(size=(10, 4)) - 1.0)]
    return base, vectors, exemplars


# bundle 'b' broken three ways, and the refusal merged_forward names
MISALIGNED = pytest.mark.parametrize("break_it, message", [
    (lambda mods: mods[:1],
     "bundle 'b': module 'layer0.bias': module count 4 vs 1"),
    (lambda mods: mods[::-1],
     "bundle 'b': module name mismatch: 'layer0.weight' vs 'layer1.bias'"),
    (lambda mods: [("layer0.weight", _quantized(25, [0], [1], 4, 0.05))]
     + mods[1:],
     "bundle 'b': module 'layer0.weight': size 24 vs 25"),
], ids=["short", "renamed", "wrong-length"])


class TestMergedForward:
    def test_matches_per_row_materialization(self):
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        rng = np.random.default_rng(30)
        x = rng.normal(size=(9, 4))
        preds, w = merged_forward(SPEC, base, vectors, index, x,
                                  n_neighbors=3)
        feats = features(SPEC, base, x)
        np.testing.assert_array_equal(w, knn_weights(index, feats, 3))
        for i in range(x.shape[0]):
            params = materialize(base, vectors, w[i])
            logits = forward(SPEC, params, x[i:i + 1])
            assert preds[i] == np.argmax(logits[0])

    def test_bundle_order_does_not_matter(self):
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        x = np.random.default_rng(31).normal(size=(6, 4))
        p1, w1 = merged_forward(SPEC, base, vectors, index, x,
                                n_neighbors=3)
        p2, w2 = merged_forward(SPEC, base, list(reversed(vectors)), index, x,
                                n_neighbors=3)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(w1, w2)

    def test_missing_task_raises(self):
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        with pytest.raises(StructureError):
            merged_forward(SPEC, base, vectors[:1], index,
                           np.zeros((2, 4)))

    def test_duplicate_task_raises(self):
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        with pytest.raises(StructureError, match="'b'"):
            merged_forward(SPEC, base, vectors + vectors[1:], index,
                           np.zeros((2, 4)))

    def test_bundle_task_outside_the_index_raises(self):
        # refused, not left unused and unchecked against the base
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        stray = [CompressedTaskVector(t, vectors[0].modules[:1])
                 for t in ("zzz", "c")]
        with pytest.raises(StructureError, match="^" + re.escape(
                "bundle holds tasks ['zzz', 'c'] not in the index") + "$"):
            merged_forward(SPEC, base, vectors + stray, index,
                           np.zeros((2, 4)), n_neighbors=3)

    def test_empty_input(self):
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        preds, w = merged_forward(SPEC, base, vectors, index,
                                  np.zeros((0, 4)), n_neighbors=3)
        assert preds.shape == (0,) and w.shape == (0, 2)

    @MISALIGNED
    def test_misaligned_bundle_raises(self, break_it, message):
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        bad = CompressedTaskVector("b", break_it(vectors[1].modules))
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            merged_forward(SPEC, base, [vectors[0], bad], index,
                           np.zeros((2, 4)), n_neighbors=3)

    @MISALIGNED
    def test_misaligned_bundle_raises_the_same_over_a_flat_base(
            self, break_it, message):
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        bad = CompressedTaskVector("b", break_it(vectors[1].modules))
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            merged_forward(SPEC, flatten(SPEC, base), [vectors[0], bad],
                           index, np.zeros((2, 4)), n_neighbors=3)

    def test_misfit_base_refused_before_any_bundle(self):
        # the bundles fit the spec and not the base: the base is named
        base, vectors, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=4, seed=0)
        flat = flatten(SPEC, base)
        for bad, message in (
                (ParamSet(base.modules[:3]),
                 "module 'layer1.bias': module count 4 vs 3"),
                (flat[:-1], "flat parameters of shape (50,), the model's "
                            "shape is (51,)")):
            with pytest.raises(StructureError,
                               match=f"^{re.escape(message)}$"):
                merged_forward(SPEC, bad, vectors, index, np.zeros((2, 4)),
                               n_neighbors=3)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_flat_base_matches_its_param_set(self, activation):
        spec = MlpSpec((4, 9, 7, 3), activation)
        base, vectors, index, x = _eight_task_setup(spec=spec)
        p1, w1 = merged_forward(spec, base, vectors, index, x, n_neighbors=5)
        p2, w2 = merged_forward(spec, flatten(spec, base), vectors, index, x,
                                n_neighbors=5)
        assert len(np.unique(w1, axis=0)) > 1
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(w1, w2)


def _eight_task_setup(seed=0, spec=SPEC):
    """Base, 8 task vectors and an index whose neighbor votes spread over
    all of them, so most rows of a batch get a weight row of their own."""
    rng = np.random.default_rng(seed)
    base = init_params(spec, seed=seed)
    vectors = []
    for t in range(8):
        mods = []
        for m, (name, v) in enumerate(base.modules):
            # task 3 leaves its first module untouched: an empty support
            nnz = 0 if (t, m) == (3, 0) else int(rng.integers(1, v.size))
            support = np.sort(rng.choice(v.size, size=nnz, replace=False))
            mods.append((name, _quantized(
                v.size, support, rng.integers(0, 16, nnz), 4, 0.05)))
        vectors.append(CompressedTaskVector(f"t{t}", mods))
    x = rng.normal(size=(40, spec.input_dim))
    feats = features(spec, base, x)
    index = ReferenceIndex(
        task_ids=[f"t{t}" for t in range(8)],
        centers=feats[rng.choice(40, 24, replace=False)]
        + rng.normal(scale=0.05, size=(24, spec.feature_dim)),
        labels=np.arange(24) % 8,
        projection=np.eye(spec.feature_dim))
    return base, vectors, index, x


class TestMixedForward:
    def _oracle_logits(self, base, vectors, x, w, spec=SPEC):
        return np.vstack([
            forward(spec, materialize(base, vectors, w[i]), x[i:i + 1])
            for i in range(x.shape[0])])

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_three_hidden_layers_match_per_row_materialization(
            self, activation):
        spec = MlpSpec((4, 9, 7, 6, 3), activation)
        base, vectors, _, _ = _eight_task_setup(spec=spec)
        rng = np.random.default_rng(52)
        n = _BLOCK_ROWS + 5
        x = rng.normal(size=(n, 4))
        w = rng.uniform(-1.0, 2.0, size=(n, 8))
        w[rng.random(w.shape) < 0.4] = 0.0
        got = _mixed_logits(spec, flatten(spec, base), vectors, x, w)
        assert got.shape == (n, 3)
        np.testing.assert_allclose(got, self._oracle_logits(base, vectors,
                                                            x, w, spec),
                                   rtol=0, atol=1e-12)

    def test_logits_match_per_row_materialization(self):
        base, vectors, _, x = _eight_task_setup()
        rng = np.random.default_rng(50)
        w = rng.uniform(-1.0, 2.0, size=(x.shape[0], 8))
        w[rng.random(w.shape) < 0.4] = 0.0
        w[0] = 0.0                      # the base model alone
        w[1] = np.eye(8)[5]             # one task alone
        got = _mixed_logits(SPEC, flatten(SPEC, base), vectors, x, w)
        assert got.shape == (x.shape[0], 3)
        np.testing.assert_allclose(got, self._oracle_logits(base, vectors,
                                                            x, w),
                                   rtol=0, atol=1e-12)

    def test_rows_across_blocks_match_per_row_materialization(self):
        base, vectors, _, _ = _eight_task_setup()
        rng = np.random.default_rng(51)
        n = 2 * _BLOCK_ROWS + 5
        x = rng.normal(size=(n, 4))
        w = rng.uniform(-1.0, 2.0, size=(n, 8))
        w[rng.random(w.shape) < 0.4] = 0.0
        got = _mixed_logits(SPEC, flatten(SPEC, base), vectors, x, w)
        assert got.shape == (n, 3)
        np.testing.assert_allclose(got, self._oracle_logits(base, vectors,
                                                            x, w),
                                   rtol=0, atol=1e-12)

    def test_predictions_match_per_row_materialization(self):
        base, vectors, index, x = _eight_task_setup()
        preds, w = merged_forward(SPEC, base, vectors[::-1], index, x,
                                  n_neighbors=5)
        # the setup must really exercise per-row mixing
        assert len(np.unique(w, axis=0)) > x.shape[0] // 2
        assert np.any(w == 0.0) and np.all(np.sum(w > 0.0, axis=1) > 1)
        oracle = self._oracle_logits(base, vectors, x, w)
        np.testing.assert_array_equal(preds, np.argmax(oracle, axis=1))
        np.testing.assert_allclose(
            _mixed_logits(SPEC, flatten(SPEC, base), vectors, x, w), oracle,
            rtol=0, atol=1e-12)


class TestBuildIndex:
    def test_no_clustering_keeps_all_features(self):
        base, _, exemplars = _model_setup()
        index = build_index(SPEC, base, exemplars, centers_per_task=None)
        want = np.vstack([features(SPEC, base, xs)
                          for _, xs in exemplars])
        np.testing.assert_array_equal(index.centers, want)
        np.testing.assert_array_equal(index.projection, np.eye(6))
        np.testing.assert_array_equal(index.labels, [0] * 10 + [1] * 10)
        assert index.task_ids == ("a", "b")

    def test_clustered_shapes_and_determinism(self):
        base, _, exemplars = _model_setup()
        i1 = build_index(SPEC, base, exemplars, centers_per_task=3, seed=5)
        i2 = build_index(SPEC, base, exemplars, centers_per_task=3, seed=5)
        assert i1.centers.shape == (6, 6)
        assert i1.feature_dim == 6 and i1.rank == 6 and i1.n_tasks == 2
        np.testing.assert_array_equal(i1.centers, i2.centers)

    def test_repeated_task_id_refused(self):
        base, _, exemplars = _model_setup()
        with pytest.raises(StructureError, match="task id 'a' is repeated "
                                                 "in the index"):
            build_index(SPEC, base, exemplars + exemplars[:1],
                        centers_per_task=None)
        with pytest.raises(StructureError, match="task id 'b' is repeated"):
            ReferenceIndex(["a", "b", "c", "b"], np.zeros((4, 2)),
                           np.arange(4), np.eye(2))


class TestPreparedIndex:
    FIELDS = ("task_ids", "centers", "labels", "projection", "pc", "c2",
              "onehot")

    def test_fields_cannot_be_assigned(self):
        index = _eight_task_setup()[2]
        for name in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(index, name, getattr(index, name))

    def test_arrays_cannot_be_written(self):
        index = _eight_task_setup()[2]
        for name in self.FIELDS[1:]:
            with pytest.raises(ValueError, match="read-only"):
                getattr(index, name)[0] = 0
        with pytest.raises(TypeError):
            index.task_ids[0] = "t9"
        assert index.task_ids == tuple(f"t{t}" for t in range(8))

    def test_caller_writes_do_not_reach_the_index(self):
        rng = np.random.default_rng(60)
        task_ids = ["a", "b", "c"]
        centers = rng.normal(size=(12, 5))
        labels = np.arange(12) % 3
        projection = rng.normal(size=(3, 5))
        feats = rng.normal(size=(30, 5))
        index = ReferenceIndex(task_ids, centers, labels, projection)
        kept = [a.copy() for a in (centers, labels, projection)]
        before = knn_weights(index, feats, 4)
        task_ids[0] = "b"
        centers[:] = 0.0
        labels[:] = 0
        projection[:] = 1.0
        assert index.task_ids == ("a", "b", "c")
        for got, want in zip((index.centers, index.labels, index.projection),
                             kept):
            np.testing.assert_array_equal(got, want)
        assert knn_weights(index, feats, 4).tobytes() == before.tobytes()

    @pytest.mark.parametrize("labels, projection, refusal", [
        (np.arange(5) % 2, np.eye(3), "5 labels for references of shape "
                                      r"\(6, 3\)"),
        (np.array([0, 1, 0, 1, 0, -1]), np.eye(3), "reference label -1 is "
                                                   "outside the index's 2"),
        (np.arange(6) % 2, np.ones(3), r"a projection of shape \(3,\)"),
    ], ids=["label-count", "negative-label", "projection-not-2d"])
    def test_construction_refuses(self, labels, projection, refusal):
        with pytest.raises(StructureError, match=refusal):
            ReferenceIndex(["a", "b"], np.zeros((6, 3)), labels, projection)

    def test_queries_never_recompute_the_references(self, monkeypatch):
        # the state built once is the only copy: knn_weights and
        # merged_forward read it and never redo the set-up
        base, vectors, index, x = _eight_task_setup()
        want = knn_weights(index, features(SPEC, base, x), 5)

        def refuse(*args):
            raise AssertionError("_projected_refs called after construction")
        monkeypatch.setattr(merging, "_projected_refs", refuse)
        got = knn_weights(index, features(SPEC, base, x), 5)
        assert got.tobytes() == want.tobytes()
        _, w = merged_forward(SPEC, base, vectors, index, x, n_neighbors=5)
        assert w.tobytes() == want.tobytes()


# magic, version, task count, the id "index", module count: the stream
# starts at byte 16 and its payload 137 header bits later; the metadata of
# TestIndexFile's 45-float index follows the stream and its u32 length
STREAM_BYTE = 16
PAYLOAD_BIT = 8 * STREAM_BYTE + 137
META_BYTE = STREAM_BYTE + 17 + 4 * 45 + 1 + 4


def _index_file(path, metadata, values, scale=1.0):
    """An index container holding values as one dense stream."""
    save_container(path, [("index", [encode_dense(values, scale)])],
                   metadata)


class TestIndexFile:
    def _index(self):
        rng = np.random.default_rng(40)
        f32 = lambda a: a.astype(np.float32).astype(np.float64)
        return ReferenceIndex(
            task_ids=["alpha", "tâche-2"],
            centers=f32(rng.normal(size=(7, 5))),
            labels=np.array([0] * 3 + [1] * 4),
            projection=f32(rng.normal(size=(2, 5))))

    def _floats(self, index):
        return np.concatenate([index.centers.ravel(),
                               index.projection.ravel()])

    def _meta(self, **change):
        return {"task_ids": ["alpha", "tâche-2"], "counts": [3, 4],
                "feature_dim": 5, **change}

    def test_round_trip(self, tmp_path):
        index = self._index()
        path = tmp_path / "refs.idx"
        save_index(path, index)
        back = load_index(path)
        assert back.task_ids == index.task_ids
        for name in ("labels", "centers", "projection", "pc", "c2"):
            a, b = getattr(back, name), getattr(index, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_file_is_one_dense_stream(self, tmp_path):
        # the references task by task, then the projection rows
        index = self._index()
        path = tmp_path / "refs.idx"
        save_index(path, index)
        tasks, metadata = load_container(path)
        assert metadata == self._meta()
        [(task_id, [stream])] = tasks
        assert task_id == "index"
        assert stream.header.fmt == Format.DENSE
        assert stream.header.scale == 1.0
        assert stream.values.tobytes() == self._floats(index).tobytes()
        assert path.read_bytes()[STREAM_BYTE:STREAM_BYTE + 17] == \
            encode_dense(self._floats(index)).data[:17]

    def test_storage_rounds_to_float32(self, tmp_path):
        index = self._index()
        centers = index.centers.copy()
        centers[0, 0] = 0.1  # not representable in float32
        index = dataclasses.replace(index, centers=centers)
        path = tmp_path / "refs.idx"
        save_index(path, index)
        back = load_index(path)
        assert back.centers[0, 0] == np.float32(0.1)
        assert back.centers[0, 0] != 0.1

    def test_bad_magic_raises(self, tmp_path):
        # no reader is kept for the TSWQ layout indexes had before
        old = (b"TSWQ" + struct.pack("<IH", 1, 1) + b"a"
               + struct.pack("<III", 1, 2, 1) + np.ones(4, "<f4").tobytes())
        path = tmp_path / "refs.idx"
        for data in (b"NOPE" + b"\x00" * 32, old):
            path.write_bytes(data)
            with pytest.raises(CodecError, match="refs.idx: not a task "
                                                 "container$"):
                load_index(path)

    def test_every_proper_prefix_rejected(self, tmp_path):
        path = tmp_path / "refs.idx"
        save_index(path, self._index())
        data = path.read_bytes()
        cut = tmp_path / "cut.idx"
        for end in range(len(data)):
            cut.write_bytes(data[:end])
            with pytest.raises(CodecError, match="cut.idx"):
                load_index(cut)
        # past the magic, every cut names where it stops
        cut.write_bytes(data[:8])
        with pytest.raises(CodecError, match="task id length cut short at "
                                             "byte 7"):
            load_index(cut)
        cut.write_bytes(data[:100])
        with pytest.raises(CodecError, match=r"cut.idx: task 'index' module "
                                             r"0: truncated stream \(bit "
                                             rf"offset {PAYLOAD_BIT}\)"):
            load_index(cut)
        cut.write_bytes(data[:-1])
        with pytest.raises(CodecError, match=(
                f"metadata of {len(data) - META_BYTE} bytes at byte "
                f"{META_BYTE} runs past the end of the file")):
            load_index(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "refs.idx"
        save_index(path, self._index())
        size = len(path.read_bytes())
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(CodecError, match=f"refs.idx: 4 trailing bytes at "
                                             f"byte {size}"):
            load_index(path)

    def test_non_finite_float_rejected(self, tmp_path):
        # a file patched to hold a NaN is refused on load, naming the
        # stream's payload; save_index refuses a non-finite value and
        # writes nothing
        for block, pos, k in (("projection", (1, 3), 44),
                              ("centers", (0, 0), 0)):
            index = self._index()
            path = tmp_path / "refs.idx"
            save_index(path, index)
            bits = np.unpackbits(np.frombuffer(path.read_bytes(), np.uint8))
            at = PAYLOAD_BIT + 32 * k
            bits[at:at + 32] = np.unpackbits(
                np.array([np.nan], ">f4").view(np.uint8))
            path.write_bytes(np.packbits(bits).tobytes())
            with pytest.raises(CodecError, match=(
                    r"refs.idx: task 'index' module 0: non-finite dense "
                    rf"payload \(bit offset {PAYLOAD_BIT}\)$")):
                load_index(path)
            poisoned = getattr(index, block).copy()
            poisoned[pos] = -np.inf
            index = dataclasses.replace(index, **{block: poisoned})
            with pytest.raises(CodecError, match="other.idx: dense values "
                                                 "must be finite in float32"):
                save_index(tmp_path / "other.idx", index)
            assert not (tmp_path / "other.idx").exists()

    @pytest.mark.parametrize("change, refusal", [
        (dict(labels=[0, 0, 1, 0, 1, 1, 1]), "each task's references must "
                                             "be one run, in task order"),
        (dict(labels=[0, 0, 0, 1, 1, 1, 2]), "reference label 2 is outside "
                                             "the index's 2 tasks"),
        (dict(projection=np.ones((2, 4))), r"a projection of shape \(2, 4\) "
                                           "for references of width 5"),
    ], ids=["interleaved", "unknown-task", "projection-width"])
    def test_index_load_index_would_misread_refused(self, tmp_path, change,
                                                    refusal):
        # an index of unknown labels or the wrong projection width is
        # refused as it is built, interleaved labels by save_index
        with pytest.raises(StructureError, match=refusal):
            save_index(tmp_path / "refs.idx",
                       dataclasses.replace(self._index(), **change))
        assert not (tmp_path / "refs.idx").exists()

    def test_repeated_task_id_refused(self, tmp_path):
        # a built index cannot come to repeat an id; load_index names the
        # file that does
        index = self._index()
        with pytest.raises(TypeError):
            index.task_ids[1] = "alpha"
        with pytest.raises(StructureError, match="task id 'alpha' is "
                                                 "repeated in the index"):
            dataclasses.replace(index, task_ids=["alpha", "alpha"])
        index = dataclasses.replace(index, task_ids=["alpha", "omega"])
        path = tmp_path / "refs.idx"
        save_index(path, index)
        path.write_bytes(path.read_bytes().replace(b"omega", b"alpha"))
        with pytest.raises(StructureError, match="refs.idx: task id 'alpha' "
                                                 "is repeated in the index"):
            load_index(path)

    def test_index_without_tasks_refused(self, tmp_path):
        index = ReferenceIndex([], np.zeros((0, 5)), np.zeros(0, np.int64),
                               np.eye(5))
        with pytest.raises(StructureError, match="refs.idx: task_ids is not "
                                                 "a non-empty list of "
                                                 "strings"):
            save_index(tmp_path / "refs.idx", index)
        assert not (tmp_path / "refs.idx").exists()

    def test_non_utf8_task_id_names_the_byte(self, tmp_path):
        # the container's own id, and an index task id in the metadata
        path = tmp_path / "refs.idx"
        save_index(path, self._index())
        good = path.read_bytes()
        assert good[9:14] == b"index"   # magic, version, task count, length
        for at, refusal in ((11, "task id is not UTF-8 at byte 11"),
                            (good.index(b"alpha") + 2,
                             f"metadata at byte {META_BYTE} is not valid "
                             "JSON")):
            data = bytearray(good)
            data[at] = 0xFF
            path.write_bytes(bytes(data))
            with pytest.raises(CodecError, match=f"refs.idx: {refusal}"):
                load_index(path)

    def test_zero_task_index_rejected(self, tmp_path):
        path = tmp_path / "refs.idx"
        _index_file(path, {"task_ids": [], "counts": [], "feature_dim": 5},
                    np.ones(5))
        with pytest.raises(StructureError, match="refs.idx: task_ids is not "
                                                 "a non-empty list of "
                                                 "strings"):
            load_index(path)

    @pytest.mark.parametrize("change, refusal", [
        (dict(task_ids=None), "task_ids is not a non-empty list of strings"),
        (dict(task_ids="alpha"), "task_ids is not a non-empty list"),
        (dict(task_ids=["alpha", 2]), "task_ids is not a non-empty list"),
        (dict(counts=None), "counts is not one non-negative int per task, "
                            "for 2 tasks"),
        (dict(counts=[7]), "counts is not one non-negative int per task"),
        (dict(counts=[8, -1]), "counts is not one non-negative int per task"),
        (dict(counts=[3.0, 4]), "counts is not one non-negative int"),
        (dict(counts=[True, 6]), "counts is not one non-negative int"),
        (dict(feature_dim=None), "feature_dim is not a positive int"),
        (dict(feature_dim=0), "feature_dim is not a positive int"),
        (dict(feature_dim=5.0), "feature_dim is not a positive int"),
        (dict(feature_dim="5"), "feature_dim is not a positive int"),
        (dict(feature_dim=4), "a stream of 45 floats is not 7 references "
                              "and a projection of rows of 4"),
        (dict(counts=[3, 6]), "a stream of 45 floats is not 9 references"),
        (dict(counts=[30, 4]), "a stream of 45 floats is not 34 references"),
    ], ids=["ids-missing", "ids-string", "ids-not-strings", "counts-missing",
            "counts-short", "counts-negative", "counts-float", "counts-bool",
            "dim-missing", "dim-zero", "dim-float", "dim-string",
            "dim-not-dividing", "no-projection-row", "refs-past-stream"])
    def test_bad_metadata_refused(self, tmp_path, change, refusal):
        path = tmp_path / "refs.idx"
        meta = {k: v for k, v in self._meta(**change).items()
                if v is not None}
        _index_file(path, meta, self._floats(self._index()))
        with pytest.raises(StructureError, match=f"refs.idx: {refusal}"):
            load_index(path)

    def test_other_containers_refused(self, tmp_path):
        # two tasks, two streams, a compressed stream or a scale other
        # than 1 is not an index, whatever the metadata says
        values = self._floats(self._index())
        dense = encode_dense(values)
        grouped = choose_format(CompressedModule(45, np.array([3]),
                                                 np.array([1]), 2, 1.0, 1.0,
                                                 1.0))
        path = tmp_path / "refs.idx"
        for tasks in ([("index", [dense]), ("more", [dense])],
                      [("index", [dense, dense])],
                      [("index", [grouped])],
                      [("index", [encode_dense(values, 2.0)])]):
            save_container(path, tasks, self._meta())
            with pytest.raises(StructureError, match=(
                    "refs.idx: not a reference index: expected one task "
                    "holding one dense stream of scale 1")):
                load_index(path)

    def test_index_past_a_stream_refused(self, tmp_path, monkeypatch):
        # 2^27 floats or more do not fit one stream: shown at 45 floats
        monkeypatch.setattr(codec, "MAX_COUNT", 45)
        with pytest.raises(CapacityError, match=r"refs.idx: element count 45 "
                                                r"outside \[1, 45\)"):
            save_index(tmp_path / "refs.idx", self._index())
        assert not (tmp_path / "refs.idx").exists()
