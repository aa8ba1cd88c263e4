"""The retrieval path against the code it replaced
(tests/serve_reference.py).

features is forward to the last hidden layer and must give the tape's
penultimate activation and the plain by-name pass's bit for bit;
knn_weights reads the references that ReferenceIndex prepares once and
must give the weight rows of the per-call set-up and fixed 64-row blocks
bit for bit; kmeans takes its squared distances from the expansion
knn_weights uses and must give the centers and assignments of its own rule
bit for bit; the mixed forward on the flat layout must give the by-name
mixed forward's logits bit for bit in blocks of the same size, and its
predictions in fixed 64-row blocks.
"""

import numpy as np
import pytest

from taskswitch.codec import CompressedModule
from taskswitch.merging import (ReferenceIndex, _block_rows, _count_weights,
                                _floored_d2, _mixed_logits, kmeans,
                                knn_weights, load_index, merged_forward,
                                save_index)
from taskswitch.model import MlpSpec, features, flatten, init_params
from taskswitch.training import CompressedTaskVector
from taskswitch.vectors import ParamSet
from serve_reference import (features_by_name, features_on_tape,
                             kmeans_own_dists, knn_weights_per_call,
                             mixed_logits_by_name, normalized_counts,
                             sq_dists)


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("widths", [(5, 7, 3), (5, 8, 6, 3), (4, 9, 7, 6, 2)],
                         ids=["2-layer", "3-layer", "4-layer"])
def test_features_match_the_tape(widths, activation):
    spec = MlpSpec(widths, activation)
    for seed in range(4):
        params = init_params(spec, seed=seed)
        rng = np.random.default_rng(seed)
        d = spec.input_dim
        for x in (3.0 * rng.normal(size=(2 * _block_rows(d) + 3, d)),
                  rng.normal(size=d),                 # one row, 1-D
                  rng.normal(size=(d, 19)).T,         # not C-contiguous
                  np.zeros((0, d))):
            _same_bits(features(spec, params, x),
                       features_on_tape(spec, params, x))


def _same_words(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _random_merge(rng):
    """A random spec of 1-4 layers, a base with nonzero biases, K of 1-8
    bundles (about a quarter of their modules empty), an index over the
    base's features, rows around a multiple of the retrieval's or the
    mixed forward's block (_block_rows) and C."""
    n_layers = int(rng.integers(1, 5))
    spec = MlpSpec(tuple(int(v) for v in rng.integers(1, 10, n_layers + 1)),
                   ("tanh", "relu")[int(rng.integers(2))])
    base = ParamSet([(name, v + rng.normal(scale=0.3, size=v.size))
                     for name, v in init_params(spec, seed=0).modules])
    k = int(rng.integers(1, 9))
    vectors = []
    for t in range(k):
        mods = []
        for name, v in base.modules:
            nnz = 0 if rng.random() < 0.25 else int(rng.integers(v.size + 1))
            width = int(rng.integers(1, 9))
            mods.append((name, CompressedModule(
                v.size, np.sort(rng.choice(v.size, nnz, replace=False)),
                rng.integers(0, 2 ** width, nnz), width, 2.0 ** width,
                2.0 ** width, float(rng.uniform(0.01, 0.2)))))
        vectors.append(CompressedTaskVector(f"t{t}", mods))
    step = _block_rows(int(rng.choice([3 * k, k * max(spec.widths[1:])])))
    n = int(rng.choice([1, 2, step - 1, step, step + 1,
                        2 * step + int(rng.integers(1, 40))]))
    x = rng.normal(size=(n, spec.input_dim))
    refs = features_by_name(spec, base, rng.normal(size=(3 * k,
                                                         spec.input_dim)))
    index = ReferenceIndex([sv.task_id for sv in vectors], refs,
                           np.arange(3 * k) % k, np.eye(spec.feature_dim))
    return spec, base, vectors, index, x, int(rng.integers(1, 3 * k + 1))


def test_flat_mixed_forward_matches_by_name():
    for case in range(300):
        rng = np.random.default_rng(400 + case)
        spec, base, vectors, index, x, n_neighbors = _random_merge(rng)
        feats = features_by_name(spec, base, x)
        _same_words(features(spec, base, x), feats)
        w = knn_weights(index, feats, n_neighbors)
        want = mixed_logits_by_name(spec, base, vectors, x, w)
        _same_words(_mixed_logits(spec, flatten(spec, base), vectors, x, w),
                    want)
        # arbitrary weights too, with zeros, negatives and whole zero rows
        w_any = rng.uniform(-1.0, 2.0, size=w.shape)
        w_any[rng.random(w.shape) < 0.4] = 0.0
        _same_words(_mixed_logits(spec, flatten(spec, base), vectors, x,
                                  w_any),
                    mixed_logits_by_name(spec, base, vectors, x, w_any))
        _same_bits(w, knn_weights_per_call(index.centers, index.labels,
                                           index.projection, index.n_tasks,
                                           feats, n_neighbors))
        preds, got_w = merged_forward(spec, base, vectors[::-1], index, x,
                                      n_neighbors)
        _same_words(got_w, w)
        np.testing.assert_array_equal(preds, np.argmax(want, axis=1))


def test_mixed_forward_matches_fixed_64_row_blocks():
    # blocks of another size may take other BLAS kernels, so a logit may
    # move by a few ulps; no prediction moves
    for case in range(100):
        rng = np.random.default_rng(700 + case)
        spec, base, vectors, index, x, n_neighbors = _random_merge(rng)
        w = knn_weights(index, features(spec, base, x), n_neighbors)
        got = _mixed_logits(spec, flatten(spec, base), vectors, x, w)
        want = mixed_logits_by_name(spec, base, vectors, x, w, block_rows=64)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.argmax(got, axis=1),
                                      np.argmax(want, axis=1))


def _check_weights(task_ids, centers, labels, projection, feats):
    """Every C from 1 to the reference count, prepared against per call."""
    index = ReferenceIndex(task_ids, centers, labels, projection)
    for n_neighbors in range(1, centers.shape[0] + 1):
        _same_bits(knn_weights(index, feats, n_neighbors),
                   knn_weights_per_call(centers, labels, projection,
                                        len(task_ids), feats, n_neighbors))
    return index


def test_count_weights_match_the_running_sum_before_the_last_task():
    # K of 1-40, C of 1-30; the first row of each draw has one occupied
    # task, the others one to min(K, C)
    rng = np.random.default_rng(500)
    for _ in range(3000):
        k, c = int(rng.integers(1, 41)), int(rng.integers(1, 31))
        counts = np.zeros((int(rng.integers(1, 6)), k))
        for i, row in enumerate(counts):
            m = 1 if i == 0 else int(rng.integers(1, min(k, c) + 1))
            row[rng.choice(k, m, replace=False)] = \
                1 + rng.multinomial(c - m, np.full(m, 1.0 / m))
        _same_bits(_count_weights(counts, c), normalized_counts(counts, c))


def test_cross_operand_is_the_doubled_product():
    # doubling is exact at normal-range values, and -2 pc^T keeps pc's
    # layout, so pf @ cross is the BLAS call of pf @ pc.T on exactly
    # doubled inputs
    rng = np.random.default_rng(600)
    for trial in range(200):
        n_refs, e, r = (int(v) for v in rng.integers(1, 70, size=3))
        centers = rng.normal(size=(n_refs, e))
        projection = rng.normal(size=(r, e))
        if trial % 2:
            centers = np.asfortranarray(centers)
        index = ReferenceIndex(["a"], centers, np.zeros(n_refs, np.int64),
                               projection)
        assert not index.cross.flags.writeable
        for rows in (1, 2, int(rng.integers(3, 600))):
            pf = rng.normal(size=(rows, e)) @ index.projection.T
            _same_bits(pf @ index.cross, (pf @ index.pc.T) * -2.0)


def test_interleaved_labels_match_per_call():
    for trial in range(10):
        rng = np.random.default_rng(200 + trial)
        n_refs, e, n_tasks = int(rng.integers(3, 25)), 6, 5
        _check_weights([f"t{k}" for k in range(n_tasks)],
                       rng.normal(size=(n_refs, e)),
                       rng.integers(n_tasks, size=n_refs),
                       rng.normal(size=(int(rng.integers(1, 8)), e)),
                       rng.normal(size=(2 * _block_rows(n_refs) + 7, e)))


def test_coincident_points_match_per_call():
    # repeated references, queries on them and a projection that folds
    # distinct points together: ties and slightly negative squared
    # distances on every row
    rng = np.random.default_rng(210)
    points = rng.normal(size=(6, 4))
    centers = points[rng.integers(6, size=18)]
    projection = rng.normal(size=(2, 4))
    projection[:, 3] = 0.0
    folded = points.copy()
    folded[:, 3] += 1.0
    feats = np.vstack([centers, points, folded, points[[0, 0, 1]]])
    _check_weights(["a", "b", "c"], centers, np.arange(18) % 3, projection,
                   feats)


def test_transposed_arrays_match_per_call_and_keep_their_layout():
    rng = np.random.default_rng(220)
    centers = rng.normal(size=(5, 16)).T
    projection = rng.normal(size=(5, 3)).T
    labels = rng.integers(4, size=32)[::-2]
    index = _check_weights(["a", "b", "c", "d"], centers, labels, projection,
                           rng.normal(size=(5, 90)).T)
    assert index.centers.flags.f_contiguous
    assert index.projection.flags.f_contiguous
    _check_weights(["a", "b", "c", "d"], centers[::2], labels[::2],
                   projection[::2], rng.normal(size=(70, 5))[:, ::-1])


def test_walkthrough_index_matches_per_call(pipeline, tmp_path):
    save_index(tmp_path / "trained.idx", pipeline.metric.index)
    x = np.vstack([t.test_x for t in pipeline.tasks])
    feats = features(pipeline.mspec, pipeline.base, x)
    for index in (pipeline.metric.index, load_index(tmp_path / "trained.idx")):
        want = knn_weights_per_call(index.centers, index.labels,
                                    index.projection, index.n_tasks, feats,
                                    10)
        _same_bits(knn_weights(index, feats, 10), want)
        _same_bits(merged_forward(pipeline.mspec, pipeline.base,
                                  pipeline.sparse, index, x, 10)[1], want)


def _check_kmeans(points, k, seed):
    got, want = kmeans(points, k, seed), kmeans_own_dists(points, k, seed)
    for g, w in zip(got, want):
        _same_bits(g, w)


def test_expansion_matches_kmeans_own_dists():
    # the product 2.0 * points is exact, so (2 p) @ c.T is (p @ c.T) * 2.0
    rng = np.random.default_rng(300)
    for _ in range(500):
        n, m, e = (int(v) for v in rng.integers(1, 40, size=3))
        points = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, e))
        centers = np.vstack([points[rng.integers(n, size=m)],
                             rng.normal(size=(m, e))])   # some coincide
        _same_bits(_floored_d2(points, centers), sq_dists(points, centers))


def test_kmeans_matches_own_dists_with_duplicate_points():
    for trial in range(20):
        rng = np.random.default_rng(310 + trial)
        n, e = int(rng.integers(2, 60)), int(rng.integers(1, 9))
        distinct = rng.normal(size=(int(rng.integers(1, n + 1)), e))
        points = distinct[rng.integers(len(distinct), size=n)]
        for k in {1, min(3, n), int(rng.integers(1, n + 1)), n}:
            _check_kmeans(points, k, seed=trial)


def test_walkthrough_kmeans_matches_own_dists(pipeline):
    want = []
    for k in range(len(pipeline.tasks)):
        feats = features(pipeline.mspec, pipeline.base, pipeline.exemplars(k))
        _check_kmeans(feats, 20, seed=0)
        want.append(kmeans_own_dists(feats, 20, seed=0)[0])
    _same_bits(pipeline.index.centers, np.vstack(want))
