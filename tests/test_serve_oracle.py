"""The retrieval path against the code it replaced
(tests/serve_reference.py).

features is a plain pass that must give the tape's penultimate activation
bit for bit; knn_weights reads the references that ReferenceIndex prepares
once and must give the weight rows of the per-call set-up bit for bit;
kmeans takes its squared distances from the expansion _distances uses and
must give the centers and assignments of its own rule bit for bit.
"""

import numpy as np
import pytest

from taskswitch.merging import (_BLOCK_ROWS, ReferenceIndex, _floored_d2,
                                kmeans, knn_weights, load_index,
                                merged_forward, save_index)
from taskswitch.model import MlpSpec, features, init_params
from serve_reference import (features_on_tape, kmeans_own_dists,
                             knn_weights_per_call, sq_dists)


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
        for x in (3.0 * rng.normal(size=(2 * _BLOCK_ROWS + 3, d)),
                  rng.normal(size=d),                 # one row, 1-D
                  rng.normal(size=(d, 19)).T,         # not C-contiguous
                  np.zeros((0, d))):
            _same_bits(features(spec, params, x),
                       features_on_tape(spec, params, x))


def _check_weights(task_ids, centers, labels, projection, feats):
    """Every C from 1 to the reference count, prepared against per call."""
    index = ReferenceIndex(task_ids, centers, labels, projection)
    for n_neighbors in range(1, centers.shape[0] + 1):
        _same_bits(knn_weights(index, feats, n_neighbors),
                   knn_weights_per_call(centers, labels, projection,
                                        len(task_ids), feats, n_neighbors))
    return index


def test_interleaved_labels_match_per_call():
    for trial in range(10):
        rng = np.random.default_rng(200 + trial)
        n_refs, e, n_tasks = int(rng.integers(3, 25)), 6, 5
        _check_weights([f"t{k}" for k in range(n_tasks)],
                       rng.normal(size=(n_refs, e)),
                       rng.integers(n_tasks, size=n_refs),
                       rng.normal(size=(int(rng.integers(1, 8)), e)),
                       rng.normal(size=(2 * _BLOCK_ROWS + 7, e)))


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
