"""Desk-scale synthetic pipeline: task generation, fine-tuning, probes.

Tasks are Gaussian class clusters around well-separated task centers. All
tasks share one orthonormal class layout but each swaps one adjacent class
pair relative to the raw labeling, so a model pre-trained on the raw
labeling needs only a small, concentrated weight delta per task, while the
deltas of different tasks genuinely conflict under a static merge.
"""

from __future__ import annotations

import csv
import io
import math
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .merging import materialize
from .model import (MlpSpec, accuracy, cross_entropy, flatten, forward,
                    unflatten)
from .optim import Adam, Sgd
from .seeding import batch_indices, rng_for
from .switch import build_switch, pulse_mask
from .training import TrainingDivergedError
from .vectors import ParamSet, TaskVector, add

ETA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 21))
MAX_PLACEMENT_TRIES = 100
GAP_BLOCK_ELEMENTS = 1 << 18   # center differences per placement check
MAX_LABEL = np.iinfo(np.int64).max
LABEL_DIGITS = len(str(MAX_LABEL))
# A plain CSV's rows hold these bytes alone, and its labels these many
# digits at most: below 2^53, so they parse exactly as float64.
PLAIN_CHARS = b"0123456789+-.eE,\r\n"
PLAIN_LABEL_DIGITS = 15


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Geometry and sizes for the K-task Gaussian benchmark."""

    num_tasks: int = 3
    input_dim: int = 16
    classes_per_task: int = 4
    train_size: int = 2000
    test_size: int = 500
    task_separation: float = 8.0
    class_separation: float = 5.0
    noise: float = 1.0
    min_task_gap: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.num_tasks < 1 or self.classes_per_task < 1:
            raise ValueError("need at least one task and one class")
        if self.classes_per_task > self.input_dim:
            raise ValueError("orthonormal class layout needs "
                             "classes_per_task <= input_dim")
        for name in ("task_separation", "class_separation", "noise",
                     "min_task_gap"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.min_task_gap > 2.0 * self.task_separation:
            raise ValueError("min_task_gap is unreachable at this separation")


@dataclass
class TaskData:
    task_id: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def task_geometry(spec: SyntheticTaskSpec,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Task centers and the shared class offsets, (K, d) and (classes, d).

    Centers are re-drawn until every pair is at least min_task_gap apart;
    class offsets are orthonormal directions scaled by class_separation.
    """
    d = spec.input_dim
    rng = rng_for(spec.seed, "geometry")
    for _ in range(MAX_PLACEMENT_TRIES):
        raw = rng.normal(size=(spec.num_tasks, d))
        centers = spec.task_separation * raw / np.linalg.norm(
            raw, axis=1, keepdims=True)
        if spec.num_tasks == 1 or _gaps_reach(centers, spec.min_task_gap):
            break
    else:
        raise ValueError(f"could not place --tasks {spec.num_tasks} centers "
                         f"--min-task-gap {spec.min_task_gap} apart in "
                         f"{MAX_PLACEMENT_TRIES} tries")
    q, _ = np.linalg.qr(rng.normal(size=(d, spec.classes_per_task)))
    offsets = spec.class_separation * q.T
    return centers, offsets


def _gaps_reach(points: np.ndarray, gap: float) -> bool:
    """Whether every pair of rows of points is at least gap apart, checked
    GAP_BLOCK_ELEMENTS differences (or one row's, if more) at a time."""
    k, d = points.shape
    rows = max(1, GAP_BLOCK_ELEMENTS // (k * d))
    for lo in range(0, k, rows):
        gaps = np.linalg.norm(points[lo:lo + rows, None] - points, axis=2)
        gaps[range(len(gaps)), range(lo, lo + len(gaps))] = np.inf
        if not gaps.min() >= gap:
            return False
    return True


def _sample_split(rng, center, offsets, n, noise, n_classes):
    """Balanced, shuffled draw of raw cluster indices around one center."""
    per = n // n_classes
    cls = np.concatenate([np.full(per, j) for j in range(n_classes)]
                         + [np.arange(n - per * n_classes)])
    rng.shuffle(cls)
    x = center + offsets[cls] + noise * rng.normal(size=(n, center.size))
    return x, cls.astype(np.int64)


def task_permutation(k: int, n_classes: int) -> np.ndarray:
    """Task k's relabeling: swap classes k and k+1 (mod the class count)."""
    perm = np.arange(n_classes)
    a, b = k % n_classes, (k + 1) % n_classes
    perm[[a, b]] = perm[[b, a]]
    return perm


def gen_tasks(spec: SyntheticTaskSpec) -> list[TaskData]:
    """Deterministic per-seed K-task benchmark.

    Task k relabels the shared clusters through task_permutation(k), an
    adjacent-pair swap.
    """
    centers, offsets = task_geometry(spec)
    tasks = []
    for k in range(spec.num_tasks):
        perm = task_permutation(k, spec.classes_per_task)
        rng = rng_for(spec.seed, "task-data", k)
        train_x, train_c = _sample_split(
            rng, centers[k], offsets, spec.train_size, spec.noise,
            spec.classes_per_task)
        test_x, test_c = _sample_split(
            rng, centers[k], offsets, spec.test_size, spec.noise,
            spec.classes_per_task)
        tasks.append(TaskData(f"task{k}", train_x, perm[train_c],
                              test_x, perm[test_c]))
    return tasks


def base_dataset(spec: SyntheticTaskSpec,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw-labeled pre-training data covering every task's region.

    Returns (train_x, train_y, test_x, test_y): each region gives
    max(train_size // K, 1) train and max(test_size // K, 1) test samples
    for K tasks, so at the defaults (K = 3) 1,998 and 498 rows. A model
    fit here is the natural base for the per-task fine-tunes.
    """
    centers, offsets = task_geometry(spec)
    rng = rng_for(spec.seed, "base-data")
    per_tr = max(spec.train_size // spec.num_tasks, 1)
    per_te = max(spec.test_size // spec.num_tasks, 1)
    tr = [_sample_split(rng, centers[k], offsets, per_tr, spec.noise,
                        spec.classes_per_task)
          for k in range(spec.num_tasks)]
    te = [_sample_split(rng, centers[k], offsets, per_te, spec.noise,
                        spec.classes_per_task)
          for k in range(spec.num_tasks)]
    return (np.vstack([x for x, _ in tr]), np.concatenate([c for _, c in tr]),
            np.vstack([x for x, _ in te]), np.concatenate([c for _, c in te]))


def write_dataset(path, x: np.ndarray, y: np.ndarray) -> None:
    """CSV x0..x{d-1},label at full precision, of rows read_dataset takes."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y)
    if x.ndim != 2 or y.shape != x.shape[:1] or y.dtype.kind not in "iu" \
            or y.size and not 0 <= y.min() <= y.max() <= MAX_LABEL:
        raise ValueError(f"{path}: need (n, d) features and n integer "
                         f"labels in [0, {MAX_LABEL}]")
    _check_finite_rows(path, x, range(2, len(y) + 2))
    row_format = "%.17g," * x.shape[1] + "%d\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"x{i}," for i in range(x.shape[1])) + "label\r\n")
        for row, label in zip(x, y):
            fh.write(row_format % (*row.tolist(), int(label)))


def _check_finite_rows(path, x: np.ndarray, lines) -> None:
    """ValueError at lines[i] for the first row i with a non-finite feature."""
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: line {lines[int(np.argmax(~finite))]}: "
                         f"non-finite feature")


def read_text(path) -> str:
    """A UTF-8 file's text; a ValueError names the file and the line of
    the first byte that is not UTF-8."""
    return _utf8(path, Path(path).read_bytes())


def _utf8(path, data: bytes) -> str:
    """data, the bytes of the file at path, decoded by read_text's rule."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b".").splitlines())
        raise ValueError(f"{path}: line {line}: not UTF-8 text ({exc.reason}"
                         f" at byte {exc.start})") from None


def read_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a write_dataset CSV.

    The file must be UTF-8 (checked first, for the whole file, as it is
    read and decoded once), and every row must have the header's width,
    finite float features and a non-negative integer label; a ValueError
    names the file and the line. A plain file (`_parse_plain`) is parsed
    in one numpy pass; any other text, and every refusal, goes through the
    csv row loop, which alone reads quoted fields and names bad lines.
    """
    data = Path(path).read_bytes()
    text = _utf8(path, data)
    parsed = _parse_plain(data, text)
    return _read_rows(path, text) if parsed is None else parsed


def _parse_plain(data: bytes, text: str,
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """What `_read_rows` returns for a plain CSV, bit for bit; else None.

    data is the file's bytes and text the same bytes decoded. Plain: a
    header line with no quote, NUL or lone CR, ending in 'label'; then
    one or more rows of the header's width, none blank or over the csv
    field limit, ending in LF or CRLF, made of PLAIN_CHARS alone, each
    with a label of at most PLAIN_LABEL_DIGITS digits and finite
    features. On those characters np.loadtxt and float() run the
    same PyOS_string_to_double, so they agree; on others they do not
    (loadtxt takes '1.5\\x1c' and refuses '1_0' and Unicode digits).
    """
    end = data.find(b"\n")
    head, _, body = text.partition("\n")
    header = head.removesuffix("\r")
    if end < 0 or data[end + 1:].translate(None, PLAIN_CHARS) \
            or any(c in header for c in '"\0\r'):
        return None
    rows = body.splitlines()
    # a row per LF, and one unterminated; a lone CR would make one more
    lfs = body.count("\n") + (not body.endswith(("\n", "\r")))
    limit = csv.field_size_limit()
    if not rows or len(rows) != lfs or len(header) > limit \
            or header.rpartition(",")[2] != "label":
        return None
    widths = list(map(len, rows))
    labels = [row[row.rfind(",") + 1:] for row in rows]
    if min(widths) == 0 or max(widths) > limit \
            or max(map(len, labels)) > PLAIN_LABEL_DIGITS \
            or not "".join(labels).isdigit():
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != header.count(",") + 1 \
            or not np.isfinite(values).all():
        return None
    return (np.ascontiguousarray(values[:, :-1]),
            values[:, -1].astype(np.int64))


def _label_value(field: str) -> int | None:
    """A label field's value if it is a decimal integer in [0, MAX_LABEL].

    int() refuses strings of over 4,300 digits, so the significant digits
    are counted first; leading zeros may be as many as they like.
    """
    label = field.strip()
    if not label.isdecimal():
        return None
    if not label.isascii():
        label = "".join(str(unicodedata.decimal(c)) for c in label)
    digits = label.lstrip("0") or "0"
    if len(digits) > LABEL_DIGITS:
        return None
    value = int(digits)
    return value if value <= MAX_LABEL else None


def _read_rows(path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """read_dataset of the file's text through csv.reader, one row at a
    time."""
    x, y, lines = [], [], []
    r = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(r, None)
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: expected trailing 'label' column")
        for row in r:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {r.line_num}: {len(row)}"
                                 f" fields, the header has {len(header)}")
            try:
                x.append([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise ValueError(f"{path}: line {r.line_num}: "
                                 f"{exc}") from None
            label = _label_value(row[-1])
            if label is None:
                raise ValueError(f"{path}: line {r.line_num}: label "
                                 f"{row[-1]!r} is not a non-negative "
                                 "integer")
            y.append(label)
            lines.append(r.line_num)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {r.line_num}: {exc}") from None
    x = np.array(x, dtype=np.float64).reshape(len(y), len(header) - 1)
    _check_finite_rows(path, x, lines)
    return x, np.array(y, dtype=np.int64)


def write_tasks(out_dir, tasks: list[TaskData]) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for t in tasks:
        for split, x, y in (("train", t.train_x, t.train_y),
                            ("test", t.test_x, t.test_y)):
            p = out / f"{t.task_id}_{split}.csv"
            write_dataset(p, x, y)
            written.append(p)
    return written


# A step whose loss is not finite, or a last step that leaves a parameter
# non-finite, raises TrainingDivergedError naming it, as training.train
# does; numpy's floating-point warnings on the way would only repeat that.
@np.errstate(all="ignore")
def fine_tune(spec: MlpSpec, params: ParamSet, x: np.ndarray, y: np.ndarray,
              steps: int = 500, lr: float = 0.01, batch_size: int = 32,
              optimizer: str = "adam", seed: int = 0) -> ParamSet:
    """Cross-entropy training on minibatches drawn with replacement.

    Every module is trained as one flat vector (model.flatten) through
    the network node, with one optimizer over it.
    """
    flat = flatten(spec, params)
    x = np.asarray(x, dtype=np.float64)
    onehot = np.eye(spec.n_classes)[np.asarray(y, dtype=np.int64)]
    optimizers = {"adam": Adam, "sgd": Sgd}
    if optimizer not in optimizers:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    opt = optimizers[optimizer]()
    batches = batch_indices(rng_for(seed, "fine-tune"), x.shape[0],
                            batch_size, steps)
    for step, idx in enumerate(batches):
        loss, grads = ad.value_and_grad(
            lambda leaves: cross_entropy(
                forward(spec, leaves["params"], x[idx]), onehot[idx]),
            {"params": flat})
        parts = {"loss": float(ad._np(loss))}
        if not math.isfinite(parts["loss"]):
            raise TrainingDivergedError(step, parts, "loss")
        flat = opt.step(flat, grads["params"], lr)
    if steps and not np.isfinite(flat).all():
        raise TrainingDivergedError(steps - 1, parts, "parameters")
    return unflatten(spec, flat)


def unit_groups(names: list[str], level: str) -> list[tuple[str, list[str]]]:
    """Probe units: one per module, or modules grouped by name prefix."""
    if level == "module":
        return [(n, [n]) for n in names]
    if level == "layer":
        groups: dict[str, list[str]] = {}
        for n in names:
            groups.setdefault(n.split(".")[0], []).append(n)
        return list(groups.items())
    raise ValueError(f"unknown probe level {level!r}")


@dataclass
class ProbeRow:
    unit: str
    accuracy: float
    drop: float


def _probe(spec, base, tv, x, y, level, transform):
    """Shared probe loop: rebuild one unit's delta, keep the rest intact."""
    finetuned = add(base, tv, 1.0)
    ref_acc = accuracy(spec, finetuned, x, y)
    rows = []
    for unit, members in unit_groups(tv.names, level):
        modules = [(name, transform(name, tau) if name in members else tau)
                   for name, tau in tv.modules]
        probed = add(base, TaskVector(tv.task_id, modules), 1.0)
        acc = accuracy(spec, probed, x, y)
        rows.append(ProbeRow(unit, acc, ref_acc - acc))
    return ref_acc, rows


def probe_sparsity(spec: MlpSpec, base: ParamSet, tv: TaskVector,
                   x: np.ndarray, y: np.ndarray, level: str = "module",
                   alpha: float = 0.9) -> tuple[float, list[ProbeRow]]:
    """Accuracy cost of pruning one unit's delta to the top (1-alpha)."""
    def prune(name, tau):
        return tau * pulse_mask(tau, alpha)
    return _probe(spec, base, tv, x, y, level, prune)


def probe_precision(spec: MlpSpec, base: ParamSet, tv: TaskVector,
                    x: np.ndarray, y: np.ndarray, level: str = "module",
                    ) -> tuple[float, list[ProbeRow]]:
    """Accuracy cost of binarizing one unit's delta (signs at one scale)."""
    def binarize(name, tau):
        sw = build_switch(TaskVector(tv.task_id, [(name, tau)]), alpha=0.0)
        return sw.modules[0][1].final_values()
    return _probe(spec, base, tv, x, y, level, binarize)


@dataclass
class ScaleRow:
    eta: float
    accuracy: float
    drop: float


def probe_scale(spec: MlpSpec, base: ParamSet, tv: TaskVector,
                x: np.ndarray, y: np.ndarray,
                etas: tuple = ETA_GRID,
                ) -> tuple[float, list[ScaleRow], float]:
    """Accuracy of the fully binarized delta as its knobs are scaled.

    Returns (finetuned accuracy, per-eta rows, best eta). eta multiplies
    every module's scale at once; eta=0 would reduce to the base model.
    """
    finetuned = add(base, tv, 1.0)
    ref_acc = accuracy(spec, finetuned, x, y)
    sw = build_switch(tv, alpha=0.0)
    rows = []
    for eta in etas:
        acc = accuracy(spec, materialize(base, [sw], [float(eta)]), x, y)
        rows.append(ScaleRow(float(eta), acc, ref_acc - acc))
    best = max(rows, key=lambda r: (r.accuracy, -r.eta))
    return ref_acc, rows, best.eta


def baseline_merge(base: ParamSet, vectors: list[TaskVector],
                   mode: str = "weight-average",
                   scale: float = 0.3) -> ParamSet:
    """Static merges: theta + (1/K) sum tau, or theta + scale * sum tau."""
    if not vectors:
        raise ValueError("need at least one task vector")
    if mode == "weight-average":
        w = 1.0 / len(vectors)
    elif mode == "task-arithmetic":
        w = scale
    else:
        raise ValueError(f"unknown baseline mode {mode!r}")
    merged = base
    for tv in vectors:
        merged = add(merged, tv, w)
    return merged
