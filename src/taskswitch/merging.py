"""Per-input dynamic merging: query features, reference index, KNN weights.

Query features come from the base model's penultimate layer. References are
either K-Means centers of each task's exemplar features or the raw features
themselves; a learnable low-rank projection shapes the retrieval metric.
Each input is answered by base + sum_k w_k * tau_k with w_k the fraction of
that task among the C nearest references. A batch is answered in fixed
blocks of rows, one pass per layer each: every row mixes the task vectors'
outputs with its own weights, so no parameter set is built per weight row;
materialize builds one for a single weight vector.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .codec import CodecError
from .container import _read_id, _unpack, _write_id
# forward is unused here but stays importable: the benchmark traces
# merging.forward by name
from .model import ACTIVATIONS, MlpSpec, features, forward  # noqa: F401
from .optim import Adam
from .seeding import rng_for
from .training import CompressedTaskVector
from .vectors import ParamSet, StructureError, check_aligned

IDX_MAGIC = b"TSWQ"
DIST_EPS = 1e-8        # d below this is clamped before inversion
NUM_FLOOR = 1e-30      # keeps the ratio loss finite with zero correct mass
D2_FLOOR = 1e-30       # squared distances are floored here before the root
KMEANS_ITERS = 100     # Lloyd sweeps at most, fewer once assignments settle
# Rows per pass in knn_weights and _mixed_logits. Their temporaries are
# (rows, references) and (rows, K * width) arrays: in blocks they stay tens
# of kilobytes and in cache whatever the input's size, instead of growing
# with it and being mapped afresh on every call.
_BLOCK_ROWS = 64


@dataclass
class ReferenceIndex:
    """Task-labeled reference points plus the metric projection."""

    task_ids: list[str]
    centers: np.ndarray      # (n_refs, e)
    labels: np.ndarray       # (n_refs,) ordinal into task_ids
    projection: np.ndarray   # (r, e)

    def __post_init__(self):
        seen = set()
        for task_id in self.task_ids:
            if task_id in seen:
                raise StructureError(f"task id {task_id!r} is repeated in "
                                     "the index")
            seen.add(task_id)

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def feature_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def rank(self) -> int:
        return self.projection.shape[0]


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    p2 = np.sum(points * points, axis=1, keepdims=True)
    c2 = np.sum(centers * centers, axis=1)
    return np.maximum(p2 + c2 - 2.0 * points @ centers.T, 0.0)


def kmeans(points: np.ndarray, k: int, seed: int,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with seeded farthest-point initialization.

    The first center is a seeded uniform draw; each further center is the
    point farthest from the chosen set. Empty clusters are reseeded to the
    point farthest from its current center. Returns (centers, assignment).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = rng_for(seed, "kmeans")
    first = int(rng.integers(n))
    chosen = [first]
    d_near = _sq_dists(points, points[[first]])[:, 0]
    for _ in range(1, k):
        nxt = int(np.argmax(d_near))
        chosen.append(nxt)
        d_near = np.minimum(d_near, _sq_dists(points, points[[nxt]])[:, 0])
    centers = points[chosen].copy()

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        d = _sq_dists(points, centers)
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


def build_index(spec: MlpSpec, base: ParamSet,
                task_exemplars: list[tuple[str, np.ndarray]],
                centers_per_task: int | None = 20, seed: int = 0,
                ) -> ReferenceIndex:
    """Cluster every task's query features into reference centers.

    centers_per_task=None keeps all features as references (the
    no-clustering mode) with an identity projection.
    """
    task_ids = []
    all_centers = []
    all_labels = []
    for ordinal, (task_id, xs) in enumerate(task_exemplars):
        task_ids.append(task_id)
        feats = features(spec, base, xs)
        if centers_per_task is None:
            centers = feats
        else:
            centers, _ = kmeans(feats, centers_per_task, seed=seed)
        all_centers.append(centers)
        all_labels.append(np.full(centers.shape[0], ordinal, dtype=np.int64))
    centers = np.vstack(all_centers)
    e = centers.shape[1]
    return ReferenceIndex(task_ids, centers, np.concatenate(all_labels),
                          np.eye(e))


def init_projection(rank: int, feature_dim: int, seed: int) -> np.ndarray:
    """Gaussian entries scaled by 1/sqrt(feature_dim)."""
    rng = rng_for(seed, "metric-init")
    return rng.normal(size=(rank, feature_dim)) / np.sqrt(feature_dim)


def _projected_refs(centers: np.ndarray, projection: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The references in projection space and their squared norms as a
    (1, refs) row: the per-call half of _distances."""
    pc = centers @ projection.T
    return pc, np.sum(pc * pc, axis=1, keepdims=True).T


def _distances(feats: np.ndarray, projection: np.ndarray, pc: np.ndarray,
               c2: np.ndarray):
    """(pf, d2, d): the rows in projection space, their squared distances
    to the references pc (expanded, so slightly negative at coincident
    points) and the distances, with d2 floored at D2_FLOOR first."""
    pf = feats @ projection.T
    f2 = np.sum(pf * pf, axis=1, keepdims=True)
    d2 = (f2 + c2) + (pf @ pc.T) * -2.0
    return pf, d2, np.sqrt(np.maximum(d2, D2_FLOOR))


def metric_objective(projection, feats: np.ndarray, centers: np.ndarray,
                     labels: np.ndarray, task_of_row: np.ndarray,
                     n_neighbors: int):
    """Mean negative log of correct-task inverse-distance mass, one node.

    Neighbor sets are chosen from the current distance values by the rule
    knn_weights serves with and held fixed inside the objective, so each
    epoch re-selects them. The backward is that of the projections,
    distances, inverse-distance sums, capped ratio, log and mean as
    separate nodes, operation for operation.
    """
    pv = ad._np(projection)
    feats = np.asarray(feats, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    pc, c2 = _projected_refs(centers, pv)
    pf, d2, d = _distances(feats, pv, pc, c2)
    mask_all = _nearest(d, n_neighbors).astype(np.float64)
    mask_correct = mask_all * (labels[None, :] == task_of_row[:, None])
    dm = np.maximum(d, DIST_EPS)
    inv = 1.0 / dm
    num = np.sum(inv * mask_correct, axis=1)
    den = np.sum(inv * mask_all, axis=1)
    floored = np.maximum(num, NUM_FLOOR)
    q = floored / den
    # Capped at 1: past distances of about 1e30 a row's mass den falls
    # below NUM_FLOOR, and the floored ratio would exceed it.
    ratio = np.minimum(q, 1.0)
    n = float(ratio.size)
    # 0.0 - mean, not mean * -1.0: a zero loss is +0.0
    loss = 0.0 - np.sum(np.log(ratio)) / n

    def vjp(g):
        g_ratio = np.broadcast_to(-g / n, ratio.shape) / ratio
        g_q = g_ratio * (q <= 1.0)
        g_num = g_q / den * (num > NUM_FLOOR)
        g_den = -g_q * floored / (den * den)
        g_inv = g_den[:, None] * mask_all + g_num[:, None] * mask_correct
        g_d = -g_inv / (dm * dm) * (d > DIST_EPS)
        g_d2 = ad.sqrt.vjp(g_d, None, d) * (d2 > D2_FLOOR)
        g_cross = g_d2 * -2.0
        g_pf = g_cross @ pc.T.T + ad.square.vjp(
            ad._unbroadcast(g_d2, (pf.shape[0], 1)), pf, None)
        g_pc = (pf.T @ g_cross).T + ad.square.vjp(
            ad._unbroadcast(g_d2, c2.shape).T, pc, None)
        return ((centers.T @ g_pc).T + (feats.T @ g_pf).T,)
    return ad.record((projection,), loss, vjp)


@dataclass
class MetricTrainResult:
    index: ReferenceIndex
    losses: list[float] = field(default_factory=list)


def train_metric(index: ReferenceIndex,
                 task_features: list[tuple[str, np.ndarray]],
                 rank: int = 32, epochs: int = 100, lr: float = 0.5,
                 n_neighbors: int = 10, seed: int = 0) -> MetricTrainResult:
    """Learn the low-rank projection by full-batch Adam on the ratio loss."""
    if [t for t, _ in task_features] != index.task_ids:
        raise StructureError("feature tasks do not match the index")
    _check_neighbors(index, n_neighbors)
    feats = np.vstack([f for _, f in task_features])
    task_of_row = np.concatenate([
        np.full(f.shape[0], i, dtype=np.int64)
        for i, (_, f) in enumerate(task_features)])
    proj = init_projection(rank, index.feature_dim, seed)
    opt = Adam()
    losses = []
    for _ in range(epochs):
        loss, grads = ad.value_and_grad(
            lambda leaves: metric_objective(
                leaves["projection"], feats, index.centers, index.labels,
                task_of_row, n_neighbors), {"projection": proj})
        losses.append(float(ad._np(loss)))
        proj = opt.step(proj, grads["projection"], lr)
    return MetricTrainResult(
        index=ReferenceIndex(index.task_ids, index.centers, index.labels,
                             proj),
        losses=losses)


def knn_weights(index: ReferenceIndex, feats: np.ndarray,
                n_neighbors: int = 10) -> np.ndarray:
    """Per-row task weights: nearest-reference counts over C.

    Distance ties go to the lower reference ordinal. Each task's weight is
    its neighbor count divided by C, except that the last task holding any
    neighbors absorbs the division rounding, so every row sums to exactly
    1.0 in float arithmetic.
    """
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    _check_neighbors(index, n_neighbors)
    pc, c2 = _projected_refs(index.centers, index.projection)
    onehot = (index.labels[:, None]
              == np.arange(index.n_tasks)).astype(np.float64)
    counts = np.empty((feats.shape[0], index.n_tasks))
    for lo in range(0, feats.shape[0], _BLOCK_ROWS):
        d = _distances(feats[lo:lo + _BLOCK_ROWS], index.projection,
                       pc, c2)[2]
        counts[lo:lo + _BLOCK_ROWS] = _nearest(d, n_neighbors) @ onehot
    w = counts / float(n_neighbors)
    rows = np.arange(w.shape[0])
    last = w.shape[1] - 1 - np.argmax(counts[:, ::-1] != 0, axis=1)
    prefix = np.cumsum(w, axis=1)
    before = np.where(last > 0, prefix[rows, np.maximum(last - 1, 0)], 0.0)
    w[rows, last] = 1.0 - before
    return w


def _check_neighbors(index: ReferenceIndex, n_neighbors: int) -> None:
    """Raise ValueError unless C is between 1 and the reference count."""
    n_refs = index.centers.shape[0]
    if not 1 <= n_neighbors <= n_refs:
        raise ValueError(f"n_neighbors must be in [1, {n_refs}], "
                         f"got {n_neighbors}")


def _nearest(d: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Mask of each row's C nearest references in the distances d.

    Every reference strictly inside the C-th distance, then the references
    at exactly that distance, lowest ordinal first. Only rows with more
    than C references at or inside it need the fill.
    """
    kth = np.partition(d, n_neighbors - 1, axis=1)[:, [n_neighbors - 1]]
    chosen = d <= kth
    tied = np.flatnonzero(np.count_nonzero(chosen, axis=1) > n_neighbors)
    if tied.size:
        dt, kt = d[tied], kth[tied]
        at_kth = dt == kt
        room = n_neighbors - np.count_nonzero(dt < kt, axis=1, keepdims=True)
        chosen[tied] &= ~at_kth | (np.cumsum(at_kth, axis=1) <= room)
    return chosen


def materialize(base: ParamSet, vectors: list[CompressedTaskVector],
                weights) -> ParamSet:
    """base + sum_k w_k * vector_k touching only the union of supports.

    A vector with weight 0 is skipped unchecked.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(vectors),):
        raise StructureError("one weight per task vector required")
    out = [(name, v.copy()) for name, v in base.modules]
    for w, sv in zip(weights, vectors):
        if w == 0.0:
            continue
        try:
            check_aligned(base, sv)
        except StructureError as exc:
            raise StructureError(f"bundle {sv.task_id!r}: {exc}") from None
        for (_, acc), (_, mod) in zip(out, sv.modules):
            acc[mod.support] += w * mod.values
    return ParamSet(out)


def _mixed_logits(spec: MlpSpec, base: ParamSet,
                  vectors: list[CompressedTaskVector], x: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
    """Logits of base + sum_k w[i, k] * vectors[k] for every row i of x.

    Each layer is linear in its parameters, so row i's pre-activation is
    a W^T + b + sum_k w[i, k] (a D_k^T + d_k). The K deltas of a weight
    module are scattered once into one dense (K*out, in) block; each block
    of rows multiplies it once and reduces over K with its rows of the
    (n, K) weight matrix. No parameter set is built. The vectors must
    already line up with base.
    """
    n, k = w.shape
    lookup = dict(base.modules)
    at = {name: m for m, name in enumerate(base.names)}

    def deltas(name):
        block = np.zeros((k, lookup[name].size))
        for t, sv in enumerate(vectors):
            mod = sv.modules[at[name]][1]
            block[t, mod.support] = mod.values
        return block

    layers = []
    for i in range(spec.n_layers):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        wname, bname = f"layer{i}.weight", f"layer{i}.bias"
        layers.append((lookup[wname].reshape(fan_out, fan_in).T,
                       lookup[bname],
                       deltas(wname).reshape(k * fan_out, fan_in).T,
                       deltas(bname), fan_out))
    act = ACTIVATIONS[spec.activation]
    logits = np.empty((n, spec.widths[-1]))
    for lo in range(0, n, _BLOCK_ROWS):
        a, wb = x[lo:lo + _BLOCK_ROWS], w[lo:lo + _BLOCK_ROWS]
        for i, (weight_t, bias, delta_t, delta_b, fan_out) in \
                enumerate(layers):
            mixed = (a @ delta_t).reshape(len(a), k, fan_out)
            z = (a @ weight_t + bias
                 + np.matmul(wb[:, None, :], mixed)[:, 0] + wb @ delta_b)
            if i < spec.n_layers - 1:
                a = act.fwd(z)
        logits[lo:lo + _BLOCK_ROWS] = z
    return logits


def merged_forward(spec: MlpSpec, base: ParamSet,
                   vectors: list[CompressedTaskVector], index: ReferenceIndex,
                   x: np.ndarray, n_neighbors: int = 10,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-input merged predictions. Returns (predictions, weight rows).

    Bundle tasks are matched to index tasks by id and checked against the
    base like materialize checks them. Each row is answered with its own
    mix of the task vectors in one pass per layer over each block of rows.
    """
    by_id = {}
    for sv in vectors:
        if sv.task_id in by_id:
            raise StructureError(f"two bundles hold task {sv.task_id!r}")
        by_id[sv.task_id] = sv
    missing = [t for t in index.task_ids if t not in by_id]
    if missing:
        raise StructureError(f"bundle is missing tasks {missing}")
    ordered = [by_id[t] for t in index.task_ids]
    for sv in ordered:
        try:
            check_aligned(base, sv)
        except StructureError as exc:
            raise StructureError(f"bundle {sv.task_id!r}: {exc}") from None
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    w = knn_weights(index, features(spec, base, x), n_neighbors)
    logits = _mixed_logits(spec, base, ordered, x, w)
    return np.argmax(logits, axis=1), w


def save_index(path, index: ReferenceIndex) -> None:
    """Little-endian .idx: ids, center counts, dims, float32 matrices; the
    bytes pass load_index's parser before they are written."""
    counts = [int(np.sum(index.labels == t)) for t in range(index.n_tasks)]
    if index.projection.shape[1] != index.feature_dim or not np.array_equal(
            index.labels, np.repeat(np.arange(index.n_tasks), counts)):
        raise StructureError(f"{path}: each task's references must be one "
                             "run, in order, of the projection's width")
    buf = bytearray()
    buf += IDX_MAGIC
    buf += struct.pack("<I", index.n_tasks)
    for task_id, count in zip(index.task_ids, counts):
        _write_id(buf, task_id, path)
        buf += struct.pack("<I", count)
    buf += struct.pack("<II", index.feature_dim, index.rank)
    with np.errstate(over="ignore"):   # past float32's range: refused below
        buf += index.centers.astype("<f4").tobytes()
        buf += index.projection.astype("<f4").tobytes()
    _parse_index(bytes(buf), path)
    Path(path).write_bytes(bytes(buf))


def load_index(path) -> ReferenceIndex:
    """Read an .idx written by save_index.

    A short field, an index with no tasks, float blocks that do not end the
    file exactly or a non-finite float raise CodecError naming the byte.
    """
    return _parse_index(Path(path).read_bytes(), path)


def _parse_index(data: bytes, path) -> ReferenceIndex:
    if data[:4] != IDX_MAGIC:
        raise StructureError(f"{path}: not a reference index")
    (n_tasks,) = _unpack("<I", data, 4, path, "task count")
    if n_tasks == 0:
        raise CodecError(f"{path}: task count at byte 4 is zero")
    cursor = 8
    task_ids, counts = [], []
    for _ in range(n_tasks):
        task_id, cursor = _read_id(data, cursor, path)
        (cnt,) = _unpack("<I", data, cursor, path, "center count")
        cursor += 4
        task_ids.append(task_id)
        counts.append(cnt)
    e, r = _unpack("<II", data, cursor, path, "dimensions")
    cursor += 8
    total = sum(counts)
    if cursor + 4 * e * (total + r) != len(data):
        raise CodecError(f"{path}: {total + r} rows of {e} floats at byte "
                         f"{cursor} need {4 * e * (total + r)} bytes, the "
                         f"file has {len(data) - cursor}")
    floats = np.frombuffer(data, dtype="<f4", offset=cursor) \
        .astype(np.float64)
    if not np.all(np.isfinite(floats)):
        bad = int(np.flatnonzero(~np.isfinite(floats))[0])
        raise CodecError(f"{path}: non-finite float at byte "
                         f"{cursor + 4 * bad}")
    try:
        return ReferenceIndex(task_ids,
                              floats[:total * e].reshape(total, e),
                              np.repeat(np.arange(n_tasks), counts),
                              floats[total * e:].reshape(r, e))
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from None
