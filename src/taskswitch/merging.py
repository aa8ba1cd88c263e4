"""Per-input dynamic merging: query features, reference index, KNN weights.

Query features come from the base model's penultimate layer. References are
either K-Means centers of each task's exemplar features or the raw features
themselves; a learnable low-rank projection shapes the retrieval metric.
Each input is answered by base + sum_k w_k * tau_k with w_k the fraction of
that task among the C nearest references; the reference side of that
search is computed once, when the index is built. A batch is answered in
blocks of rows sized by their widest temporary (_block_rows), one pass per
layer each: every row mixes the task vectors' outputs with its own weights,
so no parameter set is built per weight row; materialize builds one for a
single weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .codec import encode_dense
from .container import load_container, save_container
# forward is unused here but stays importable: the benchmark traces
# merging.forward by name
from .model import (MlpSpec, check_params, features, flatten,  # noqa: F401
                    forward)
from .optim import Adam
from .seeding import rng_for
from .training import CompressedTaskVector, TrainingDivergedError
from .vectors import ParamSet, StructureError, check_aligned, refused_at

DIST_EPS = 1e-8        # d below this is clamped before inversion
NUM_FLOOR = 1e-30      # keeps the ratio loss finite with zero correct mass
D2_FLOOR = 1e-30       # squared distances are floored here before the root
KMEANS_ITERS = 100     # Lloyd sweeps at most, fewer once assignments settle
# Rows per pass in knn_weights and _mixed_logits (_block_rows). Their
# temporaries are (rows, references) and (rows, K * width) arrays: a block
# grows while they stay within _BLOCK_FLOATS floats (256 KB), so a desk
# batch is one or two passes, and never has fewer than _MIN_BLOCK_ROWS rows.
_MIN_BLOCK_ROWS = 64
_BLOCK_FLOATS = 2 ** 15


@dataclass(frozen=True, eq=False)
class ReferenceIndex:
    """Task-labeled reference points plus the metric projection.

    An index is a value prepared once. The arrays are read-only copies, so
    later writes to the caller's arrays do not reach it, and construction
    computes what every query reads: the references in projection space
    (pc), their squared norms as a (1, refs) row (c2), the operand -2 pc^T
    of the distances' cross term (cross) and the (refs, K) label one-hot.
    A repeated task id, a projection of another width than the references
    or a label outside [0, K) raises StructureError.
    """

    task_ids: tuple[str, ...]
    centers: np.ndarray      # (n_refs, e)
    labels: np.ndarray       # (n_refs,) ordinal into task_ids
    projection: np.ndarray   # (r, e)
    pc: np.ndarray = field(init=False, repr=False)
    c2: np.ndarray = field(init=False, repr=False)
    cross: np.ndarray = field(init=False, repr=False)
    onehot: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        task_ids = tuple(self.task_ids)
        seen = set()
        for task_id in task_ids:
            if task_id in seen:
                raise StructureError(f"task id {task_id!r} is repeated in "
                                     "the index")
            seen.add(task_id)
        # copies in the caller's memory layout, so pc is the product the
        # caller's own arrays give
        centers = np.array(self.centers, dtype=np.float64, order="K")
        labels = np.array(self.labels, dtype=np.int64, order="K")
        projection = np.array(self.projection, dtype=np.float64, order="K")
        if centers.ndim != 2 or labels.shape != centers.shape[:1]:
            raise StructureError(f"{labels.size} labels for references of "
                                 f"shape {centers.shape}")
        if projection.ndim != 2 or projection.shape[1] != centers.shape[1]:
            raise StructureError(f"a projection of shape {projection.shape} "
                                 f"for references of width "
                                 f"{centers.shape[1]}")
        hit = labels[:, None] == np.arange(len(task_ids))
        if np.count_nonzero(hit) != labels.size:   # a label with no task
            outside = labels[~hit.any(axis=1)][0]
            raise StructureError(f"reference label {outside} is outside "
                                 f"the index's {len(task_ids)} tasks")
        onehot = hit.astype(np.float64)
        # values past float64's range warn where the index is queried and
        # are refused where it is saved, not while it is prepared
        with np.errstate(all="ignore"):
            pc, c2, cross = _projected_refs(centers, projection)
        for name, value in (("task_ids", task_ids), ("centers", centers),
                            ("labels", labels), ("projection", projection),
                            ("pc", pc), ("c2", c2), ("cross", cross),
                            ("onehot", onehot)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def feature_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def rank(self) -> int:
        return self.projection.shape[0]


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
    d_near = _floored_d2(points, points[[first]])[:, 0]
    for _ in range(1, k):
        nxt = int(np.argmax(d_near))
        chosen.append(nxt)
        d_near = np.minimum(d_near, _floored_d2(points, points[[nxt]])[:, 0])
    centers = points[chosen].copy()

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        d = _floored_d2(points, centers)
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


def _block_rows(width: int) -> int:
    """Rows per block when each row's widest temporary holds width floats:
    as many as keep it within _BLOCK_FLOATS, and at least _MIN_BLOCK_ROWS."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_FLOATS // max(width, 1))


def _ref_terms(refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reference half of _expanded_d2 for the rows of refs: their
    squared norms as a (1, refs) row and the cross-term operand -2 refs^T.
    The operand keeps refs' layout, so pf @ it is the BLAS call
    pf @ refs.T on exactly doubled inputs: (pf @ refs.T) * -2.0, bit for
    bit."""
    return np.sum(refs * refs, axis=1, keepdims=True).T, (refs * -2.0).T


def _projected_refs(centers: np.ndarray, projection: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pc, c2, cross): the references in projection space and their
    _ref_terms, computed once per ReferenceIndex and once per
    metric_objective call."""
    pc = centers @ projection.T
    return (pc, *_ref_terms(pc))


def _expanded_d2(pf: np.ndarray, c2: np.ndarray, cross: np.ndarray):
    """|f|^2 + |c|^2 - 2 f.c from the rows of pf to the references of
    _ref_terms c2 and cross, as (f2 + c2) + pf @ cross: slightly negative
    at coincident points."""
    d2 = np.sum(pf * pf, axis=1, keepdims=True) + c2
    d2 += pf @ cross
    return d2


def _floored_d2(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """kmeans' squared distances: _expanded_d2, floored at 0."""
    d2 = _expanded_d2(points, *_ref_terms(refs))
    return np.maximum(d2, 0.0, out=d2)


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
    pc, c2, cross = _projected_refs(centers, pv)
    pf = feats @ pv.T
    d2 = _expanded_d2(pf, c2, cross)
    d = np.sqrt(np.maximum(d2, D2_FLOOR))
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


# An epoch whose loss or updated projection is not finite raises
# TrainingDivergedError naming it, as training.train does for its steps.
@np.errstate(all="ignore")
def train_metric(index: ReferenceIndex,
                 task_features: list[tuple[str, np.ndarray]],
                 rank: int = 32, epochs: int = 100, lr: float = 0.5,
                 n_neighbors: int = 10, seed: int = 0) -> MetricTrainResult:
    """Learn the low-rank projection by full-batch Adam on the ratio loss."""
    tasks = tuple(t for t, _ in task_features)
    if tasks != index.task_ids:
        raise StructureError(f"feature tasks {list(tasks)} do not match the "
                             f"index's tasks {list(index.task_ids)}")
    _check_neighbors(index, n_neighbors)
    rows = [_feature_rows(index, f) for _, f in task_features]
    feats = np.vstack(rows)
    task_of_row = np.repeat(np.arange(len(rows)), [len(f) for f in rows])
    proj = init_projection(rank, index.feature_dim, seed)
    opt = Adam()
    losses = []
    for epoch in range(epochs):
        loss, grads = ad.value_and_grad(
            lambda leaves: metric_objective(
                leaves["projection"], feats, index.centers, index.labels,
                task_of_row, n_neighbors), {"projection": proj})
        losses.append(float(ad._np(loss)))
        if not np.isfinite(losses[-1]):
            raise TrainingDivergedError(epoch, {"loss": losses[-1]}, "loss",
                                        "epoch")
        proj = opt.step(proj, grads["projection"], lr)
        if not np.isfinite(proj).all():
            raise TrainingDivergedError(epoch, {"loss": losses[-1]},
                                        "projection", "epoch")
    return MetricTrainResult(index=replace(index, projection=proj),
                             losses=losses)


def knn_weights(index: ReferenceIndex, feats: np.ndarray,
                n_neighbors: int = 10) -> np.ndarray:
    """Per-row task weights: nearest-reference counts over C.

    Distance ties go to the lower reference ordinal. Each task's weight is
    its neighbor count divided by C, except that the last task holding any
    neighbors absorbs the division rounding, so every row sums to exactly
    1.0 in float arithmetic.
    """
    feats = _feature_rows(index, feats)
    _check_neighbors(index, n_neighbors)
    n = feats.shape[0]
    counts = np.empty((n, index.n_tasks))
    step = _block_rows(index.centers.shape[0])
    for lo in range(0, n, step):
        d = _expanded_d2(feats[lo:lo + step] @ index.projection.T,
                         index.c2, index.cross)
        np.sqrt(np.maximum(d, D2_FLOOR, out=d), out=d)
        counts[lo:lo + step] = _nearest(d, n_neighbors) @ index.onehot
    return _count_weights(counts, n_neighbors)


def _count_weights(counts: np.ndarray, n_neighbors: int) -> np.ndarray:
    """knn_weights' rows from (rows, K) neighbor counts that each sum to C.

    The last task holding neighbors takes 1 minus the running sum of the
    weights before it. With its own weight zeroed first, that is the
    running sum over the whole row, since the tasks after it add +0.0.
    """
    w = counts / float(n_neighbors)
    rows = np.arange(w.shape[0])
    last = w.shape[1] - 1 - np.argmax(counts[:, ::-1] != 0, axis=1)
    w[rows, last] = 0.0
    w[rows, last] = 1.0 - np.cumsum(w, axis=1)[:, -1]
    return w


def _feature_rows(index: ReferenceIndex, feats) -> np.ndarray:
    """feats as float64 rows, refused with StructureError unless they are
    as wide as the index's references."""
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    if feats.ndim != 2 or feats.shape[1] != index.feature_dim:
        raise StructureError(f"features of width {feats.shape[-1]}, the "
                             f"index's width is {index.feature_dim}")
    return feats


def _check_neighbors(index: ReferenceIndex, n_neighbors: int,
                     name: str = "n_neighbors") -> None:
    """Raise ValueError, naming C as name, unless C is between 1 and the
    reference count."""
    n_refs = index.centers.shape[0]
    if not 1 <= n_neighbors <= n_refs:
        raise ValueError(f"{name} must be in [1, {n_refs}], "
                         f"got {n_neighbors}")


def _nearest(d: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Mask of each row's C nearest references in the distances d.

    Every reference strictly inside the C-th distance, then the references
    at exactly that distance, lowest ordinal first. Only rows with more
    than C references at or inside it need the fill.
    """
    c = n_neighbors
    kth = np.partition(d, c - 1, axis=1)[:, c - 1:c]
    chosen = d <= kth
    over = chosen.sum(axis=1) > c
    if over.any():
        tied = np.flatnonzero(over)
        dt, kt = d[tied], kth[tied]
        at_kth = dt == kt
        room = c - np.count_nonzero(dt < kt, axis=1, keepdims=True)
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
        refused_at(f"bundle {sv.task_id!r}", check_aligned, base, sv)
        for (_, acc), (_, mod) in zip(out, sv.modules):
            acc[mod.support] += w * mod.values
    return ParamSet(out)


def _mixed_logits(spec: MlpSpec, flat: np.ndarray,
                  vectors: list[CompressedTaskVector], x: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
    """Logits of base + sum_k w[i, k] * vectors[k] for every row i of x.

    Each layer is linear in its parameters, so row i's pre-activation is
    a W^T + b + sum_k w[i, k] (a D_k^T + d_k). The base is its flat
    vector; the K deltas are scattered once into one buffer, module m's
    (K, size) block at K * offsets[m], so a weight module's is a dense
    (K*out, in) view. Each block of rows multiplies it once and reduces
    over K with its rows of w. The vectors must line up with spec.
    """
    n, k = w.shape
    off = spec.offsets
    deltas = np.zeros(k * off[-1])
    for t, sv in enumerate(vectors):
        for lo, hi, (_, mod) in zip(off, off[1:], sv.modules):
            row = k * lo + t * (hi - lo)   # row t of module m's block
            deltas[row:row + hi - lo][mod.support] = mod.values
    layers = [(flat[w0:b0].reshape(fan_out, fan_in).T, flat[b0:end],
               deltas[k * w0:k * b0].reshape(k * fan_out, fan_in).T,
               deltas[k * b0:k * end].reshape(k, fan_out), fan_out, act)
              for (_, _, fan_in, fan_out, act), w0, b0, end
              in zip(spec.layers, off[::2], off[1::2], off[2::2])]
    logits = np.empty((n, spec.n_classes))
    step = _block_rows(k * max(spec.widths[1:]))
    for lo in range(0, n, step):
        a, wb = x[lo:lo + step], w[lo:lo + step]
        for weight_t, bias, delta_t, delta_b, fan_out, act in layers:
            mixed = (a @ delta_t).reshape(len(a), k, fan_out)
            z = a @ weight_t
            z += bias
            z += np.matmul(wb[:, None, :], mixed)[:, 0]
            z += wb @ delta_b
            a = z if act is None else act.fwd(z)
        logits[lo:lo + step] = a
    return logits


def merged_forward(spec: MlpSpec, base: ParamSet | np.ndarray,
                   vectors: list[CompressedTaskVector], index: ReferenceIndex,
                   x: np.ndarray, n_neighbors: int = 10,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-input merged predictions. Returns (predictions, weight rows).

    base is a ParamSet or its flat vector, read through flatten. Bundle
    tasks are matched to index tasks by id, one each, and checked against
    spec. Each row is answered with its own mix of the task vectors in one
    pass per layer over each block of rows.
    """
    flat = flatten(spec, base)
    by_id = {}
    for sv in vectors:
        if sv.task_id in by_id:
            raise StructureError(f"two bundles hold task {sv.task_id!r}")
        by_id[sv.task_id] = sv
    missing = [t for t in index.task_ids if t not in by_id]
    if missing:
        raise StructureError(f"bundle is missing tasks {missing}")
    if len(by_id) > len(index.task_ids):
        extra = [t for t in by_id if t not in index.task_ids]
        raise StructureError(f"bundle holds tasks {extra} not in the index")
    ordered = [by_id[t] for t in index.task_ids]
    for sv in ordered:
        refused_at(f"bundle {sv.task_id!r}", check_params, spec, sv)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    w = knn_weights(index, features(spec, flat, x), n_neighbors)
    logits = _mixed_logits(spec, flat, ordered, x, w)
    return np.argmax(logits, axis=1), w


def _index_layout(path, metadata: dict, size: int):
    """(task ids, references per task, feature width, rank) of an index
    file, or StructureError naming it: the rule of save_index and
    load_index for the metadata and the size of the stream of floats."""
    task_ids, counts, dim = (metadata.get(key) for key in
                             ("task_ids", "counts", "feature_dim"))
    if not isinstance(task_ids, list) or not task_ids or \
            not all(isinstance(t, str) for t in task_ids):
        raise StructureError(f"{path}: task_ids is not a non-empty list of "
                             "strings")
    if not isinstance(counts, list) or len(counts) != len(task_ids) or \
            not all(type(c) is int and c >= 0 for c in counts):
        raise StructureError(f"{path}: counts is not one non-negative int "
                             f"per task, for {len(task_ids)} tasks")
    if type(dim) is not int or dim < 1:
        raise StructureError(f"{path}: feature_dim is not a positive int")
    rows, rest = divmod(size, dim)
    if rest or rows <= sum(counts):
        raise StructureError(f"{path}: a stream of {size} floats is not "
                             f"{sum(counts)} references and a projection "
                             f"of rows of {dim}")
    return task_ids, counts, dim, rows - sum(counts)


def save_index(path, index: ReferenceIndex) -> None:
    """A task container of one dense float32 stream, the references task
    by task and then the projection rows, with task_ids, counts and
    feature_dim as metadata; what load_index refuses is not written."""
    counts = np.bincount(index.labels, minlength=index.n_tasks).tolist()
    if not np.array_equal(index.labels,
                          np.repeat(np.arange(index.n_tasks), counts)):
        raise StructureError(f"{path}: each task's references must be one "
                             "run, in task order")
    metadata = {"task_ids": list(index.task_ids), "counts": counts,
                "feature_dim": index.feature_dim}
    _index_layout(path, metadata, index.centers.size + index.projection.size)
    # refuses a non-finite float32, or 2^27 floats or more
    stream = refused_at(path, encode_dense, np.concatenate(
        [index.centers.ravel(), index.projection.ravel()]))
    save_container(path, [("index", [stream])], metadata)


def load_index(path) -> ReferenceIndex:
    """Read an index save_index wrote: what load_container refuses raises
    CodecError, and any other file StructureError, naming the file."""
    tasks, metadata = load_container(path)
    mods = tasks[0][1] if len(tasks) == 1 else []
    if len(mods) != 1 or mods[0].values is None or \
            mods[0].header.scale != 1.0:
        raise StructureError(f"{path}: not a reference index: expected one "
                             "task holding one dense stream of scale 1")
    floats = mods[0].values
    task_ids, counts, dim, rank = _index_layout(path, metadata, floats.size)
    refs = sum(counts)
    return refused_at(path, ReferenceIndex, task_ids,
                      floats[:refs * dim].reshape(refs, dim),
                      np.repeat(np.arange(len(counts)), counts),
                      floats[refs * dim:].reshape(rank, dim))
