"""The serving code that a prepared ReferenceIndex, the features pass,
k-means on the shared distance expansion and the mixed forward on the flat
layout replaced, kept as the oracle their outputs must match bit for bit.

knn_weights_per_call builds the projected references, their squared norms
and the label one-hot from the caller's own arrays on every call;
features_on_tape runs the whole network on the tape and keeps the
penultimate activation; features_by_name is the plain pass over the hidden
layers that looked each module up by name; kmeans_own_dists runs Lloyd's
algorithm on sq_dists, k-means' own squared-distance rule;
mixed_logits_by_name is the mixed forward that found each module of the
base and the bundles through name dicts and built one delta block per
module.
"""

import numpy as np

from taskswitch.merging import (_BLOCK_ROWS, KMEANS_ITERS, _distances,
                                _nearest, _projected_refs)
from taskswitch.model import forward
from taskswitch.seeding import rng_for
from taskswitch.vectors import ParamSet


def features_on_tape(spec, params, x) -> np.ndarray:
    return forward(spec, params, x, spec.n_layers - 1)


def _inputs(params, x: np.ndarray) -> tuple[dict, np.ndarray]:
    """params as a name -> value mapping and x as a float64 batch."""
    lookup = dict(params.modules if isinstance(params, ParamSet) else params)
    x = np.asarray(x, dtype=np.float64)
    return lookup, x[None, :] if x.ndim == 1 else x


def features_by_name(spec, params, x) -> np.ndarray:
    lookup, a = _inputs(params, x)
    for wname, bname, _, fan_out, act in spec.layers[:-1]:
        a = act.fwd(a @ lookup[wname].reshape(fan_out, -1).T + lookup[bname])
    return a


def mixed_logits_by_name(spec, base, vectors, x, w) -> np.ndarray:
    n, k = w.shape
    lookup = dict(base.modules)
    at = {name: m for m, name in enumerate(base.names)}

    def deltas(name):
        block = np.zeros((k, lookup[name].size))
        for t, sv in enumerate(vectors):
            mod = sv.modules[at[name]][1]
            block[t, mod.support] = mod.values
        return block

    layers = [(lookup[wname].reshape(fan_out, fan_in).T, lookup[bname],
               deltas(wname).reshape(k * fan_out, fan_in).T, deltas(bname),
               fan_out, act)
              for wname, bname, fan_in, fan_out, act in spec.layers]
    logits = np.empty((n, spec.n_classes))
    for lo in range(0, n, _BLOCK_ROWS):
        a, wb = x[lo:lo + _BLOCK_ROWS], w[lo:lo + _BLOCK_ROWS]
        for weight_t, bias, delta_t, delta_b, fan_out, act in layers:
            mixed = (a @ delta_t).reshape(len(a), k, fan_out)
            z = (a @ weight_t + bias
                 + np.matmul(wb[:, None, :], mixed)[:, 0] + wb @ delta_b)
            a = z if act is None else act.fwd(z)
        logits[lo:lo + _BLOCK_ROWS] = a
    return logits


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
