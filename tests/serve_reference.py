"""The retrieval code that a prepared ReferenceIndex, the plain features
pass and k-means on the shared distance expansion replaced, kept as the
oracle their outputs must match bit for bit.

knn_weights_per_call builds the projected references, their squared norms
and the label one-hot from the caller's own arrays on every call;
features_on_tape runs the whole network on the tape and keeps the
penultimate activation; kmeans_own_dists runs Lloyd's algorithm on
sq_dists, k-means' own squared-distance rule.
"""

import numpy as np

from taskswitch import autodiff as ad
from taskswitch.merging import (_BLOCK_ROWS, KMEANS_ITERS, _distances,
                                _nearest, _projected_refs)
from taskswitch.model import forward
from taskswitch.seeding import rng_for


def features_on_tape(spec, params, x) -> np.ndarray:
    return ad._np(forward(spec, params, x).features)


def knn_weights_per_call(centers, labels, projection, n_tasks: int, feats,
                         n_neighbors: int) -> np.ndarray:
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    pc, c2 = _projected_refs(centers, projection)
    onehot = (labels[:, None] == np.arange(n_tasks)).astype(np.float64)
    counts = np.empty((feats.shape[0], n_tasks))
    for lo in range(0, feats.shape[0], _BLOCK_ROWS):
        d = _distances(feats[lo:lo + _BLOCK_ROWS], projection, pc, c2)[2]
        counts[lo:lo + _BLOCK_ROWS] = _nearest(d, n_neighbors) @ onehot
    w = counts / float(n_neighbors)
    rows = np.arange(w.shape[0])
    last = w.shape[1] - 1 - np.argmax(counts[:, ::-1] != 0, axis=1)
    prefix = np.cumsum(w, axis=1)
    before = np.where(last > 0, prefix[rows, np.maximum(last - 1, 0)], 0.0)
    w[rows, last] = 1.0 - before
    return w


def sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    p2 = np.sum(points * points, axis=1, keepdims=True)
    c2 = np.sum(centers * centers, axis=1)
    return np.maximum(p2 + c2 - 2.0 * points @ centers.T, 0.0)


def kmeans_own_dists(points, k: int, seed: int):
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = rng_for(seed, "kmeans")
    first = int(rng.integers(n))
    chosen = [first]
    d_near = sq_dists(points, points[[first]])[:, 0]
    for _ in range(1, k):
        nxt = int(np.argmax(d_near))
        chosen.append(nxt)
        d_near = np.minimum(d_near, sq_dists(points, points[[nxt]])[:, 0])
    centers = points[chosen].copy()

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        d = sq_dists(points, centers)
        new_assign = np.argmin(d, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = points[assign == j]
            if members.size == 0:
                row_d = d[np.arange(n), assign]
                centers[j] = points[int(np.argmax(row_d))]
            else:
                centers[j] = members.mean(axis=0)
    return centers, assign
