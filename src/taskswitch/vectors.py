"""Flat per-module parameter sets, task vectors, and signed statistics.

Every model is a named list of flattened float64 modules. A task vector is
the elementwise difference between a fine-tuned and a base parameter set,
stored the same way. Zeros belong to neither sign class anywhere below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class StructureError(ValueError):
    """Two parameter sets (or a set and a companion object) do not line up."""


def refused_at(where: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), or its ValueError (every StructureError and
    CodecError is one) raised again with where in front of its message:
    the type, any bit_offset and the traceback stay."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


@dataclass
class ParamSet:
    """Ordered mapping of module name -> flat float64 vector."""

    modules: list[tuple[str, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        self.modules = [(name, np.asarray(v, dtype=np.float64).reshape(-1))
                        for name, v in self.modules]

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.modules]

    def get(self, name: str) -> np.ndarray:
        for n, v in self.modules:
            if n == name:
                return v
        raise KeyError(name)

    def total_size(self) -> int:
        return sum(v.size for _, v in self.modules)

    def copy(self) -> "ParamSet":
        return ParamSet([(n, v.copy()) for n, v in self.modules])


class TaskVector(ParamSet):
    """Per-module incremental weights of one task, aligned with its base."""

    def __init__(self, task_id: str, modules: list[tuple[str, np.ndarray]]):
        self.task_id = task_id
        super().__init__(modules)


@dataclass(frozen=True)
class SignedBounds:
    """Min/max absolute values of the strictly positive / negative elements.

    has_pos / has_neg record whether the sign class is populated at all;
    the corresponding bounds are 0 when it is not.
    """

    pos_min: float
    pos_max: float
    neg_min: float
    neg_max: float
    has_pos: bool
    has_neg: bool


def _check_modules(names: list[str], sizes, modules) -> None:
    """The module alignment rule: raise StructureError naming the first of
    modules that differs from names and sizes (in order) in name or size,
    or else the first missing or surplus one."""
    for name, size, (got, v) in zip(names, sizes, modules):
        if got != name:
            raise StructureError(f"module name mismatch: {name!r} vs {got!r}")
        if v.size != size:
            raise StructureError(f"module {name!r}: size {size} vs {v.size}")
    if len(names) != len(modules):
        first = names[len(modules)] if len(names) > len(modules) \
            else modules[len(names)][0]
        raise StructureError(f"module {first!r}: module count "
                             f"{len(names)} vs {len(modules)}")


def check_aligned(a, b) -> None:
    """b's modules line up with a's, whatever the modules."""
    _check_modules(a.names, [v.size for _, v in a.modules], b.modules)


def diff(finetuned: ParamSet, base: ParamSet, task_id: str) -> TaskVector:
    """Task vector: fine-tuned minus base, module by module."""
    check_aligned(finetuned, base)
    mods = [(name, vf - vb)
            for (name, vf), (_, vb) in zip(finetuned.modules, base.modules)]
    return TaskVector(task_id, mods)


def add(base: ParamSet, tv: TaskVector, weight: float = 1.0) -> ParamSet:
    """base + weight * task_vector, checking alignment."""
    check_aligned(base, tv)
    return ParamSet([(name, vb + weight * vt) for (name, vb), (_, vt)
                     in zip(base.modules, tv.modules)])


def signed_bounds(v: np.ndarray) -> SignedBounds:
    """Absolute-value bounds of the positive and negative classes of v."""
    v = np.asarray(v, dtype=np.float64)
    pos = v[v > 0.0]
    neg = v[v < 0.0]
    has_pos = pos.size > 0
    has_neg = neg.size > 0
    return SignedBounds(
        pos_min=float(pos.min()) if has_pos else 0.0,
        pos_max=float(pos.max()) if has_pos else 0.0,
        neg_min=float(np.abs(neg).min()) if has_neg else 0.0,
        neg_max=float(np.abs(neg).max()) if has_neg else 0.0,
        has_pos=has_pos,
        has_neg=has_neg,
    )


def sign_quantile(v: np.ndarray, alpha: float, sign: str) -> float:
    """Nearest-rank pruning threshold for one sign class.

    For '+', returns gamma such that the floor(alpha * m) smallest positive
    elements satisfy x <= gamma; the retained set is x > gamma. For '-' the
    mirror: the floor(alpha * m) negatives closest to zero satisfy
    x >= gamma and the retained set is x < gamma. Returns 0.0 when nothing
    of that sign is pruned (alpha small enough, or the class is empty):
    a zero threshold keeps the whole class and never activates zeros.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    v = np.asarray(v, dtype=np.float64)
    cls = v[v > 0.0] if sign == "+" else v[v < 0.0]
    m = cls.size
    k = math.floor(alpha * m)
    if m == 0 or k == 0:
        return 0.0
    cls_sorted = np.sort(cls)
    if sign == "+":
        return float(cls_sorted[k - 1])        # k-th smallest positive
    return float(cls_sorted[m - k])            # k-th largest negative

