"""The serving path that a prepared ReferenceIndex and the plain features
pass replaced, kept as the oracle their outputs must match bit for bit.

knn_weights_per_call builds the projected references, their squared norms
and the label one-hot from the caller's own arrays on every call;
features_on_tape runs the whole network on the tape and keeps the
penultimate activation.
"""

import numpy as np

from taskswitch import autodiff as ad
from taskswitch.merging import (_BLOCK_ROWS, _distances, _nearest,
                                _projected_refs)
from taskswitch.model import forward


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
