"""Joint training of the gate logits and bit-width logits for one task.

Each step draws a batch of exemplars, rebuilds the soft-gated mixed-width
task vector on a fresh tape, and minimizes

    sparsity term + bit term + lambda * preservation loss

with Adam on ~7 scalars per module. The fine-tuned reference outputs are
computed once and indexed per batch. Hardening and bit selection happen
after the last step at the post-run temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .bitwidth import (BitLogits, CANDIDATE_WIDTHS, QuantSpec, bit_regularizer,
                       mixed_quantize, quantize_indices, select_bitwidth)
from .codec import CompressedModule, EncodedModule, choose_format
from .gating import (GateParams, INIT_SCALE_LOGIT, harden, soft_gate,
                     sparsity_loss, temperature_schedule)
from .losses import DEFAULT_LAMBDA, preservation_loss
from .model import MlpSpec, check_params, forward
from .optim import Adam, clip_global_norm
from .seeding import rng_for
from .vectors import ParamSet, TaskVector, check_aligned

class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, components: dict[str, float]):
        super().__init__(f"objective became non-finite at step {step}: "
                         f"{components}")
        self.step = step
        self.components = components


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "kl"                 # kl | mse | cka
    preserve_weight: float | None = None  # lambda; None -> per-loss default
    softmax_temp: float = 4.0             # T for the kl loss
    steps: int = 500
    batch_size: int = 32
    exemplar_count: int = 100
    lr_gate: float = 0.05
    lr_bits: float = 0.1
    clip_norm: float = 10.0
    seed: int = 0

    @property
    def lam(self) -> float:
        if self.preserve_weight is not None:
            return self.preserve_weight
        return DEFAULT_LAMBDA[self.loss_kind]


@dataclass
class CompressedTaskVector:
    task_id: str
    modules: list[tuple[str, CompressedModule]]

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.modules]

    def total_size(self) -> int:
        return sum(m.length for _, m in self.modules)

    def total_nnz(self) -> int:
        return sum(m.nnz for _, m in self.modules)

    def sparsity(self) -> float:
        """Size-weighted achieved sparsity across modules."""
        return 1.0 - self.total_nnz() / self.total_size()

    def to_vector(self) -> TaskVector:
        return TaskVector(self.task_id,
                          [(n, m.final_values()) for n, m in self.modules])

    def to_streams(self) -> list[EncodedModule]:
        return [choose_format(m) for _, m in self.modules]


@dataclass
class TrainResult:
    compressed: CompressedTaskVector
    history: list[dict] = field(default_factory=list)
    gate_state: dict[str, np.ndarray] = field(default_factory=dict)
    bit_state: dict[str, np.ndarray] = field(default_factory=dict)


def _gate_from_leaf(leaf) -> GateParams:
    return GateParams(
        threshold_pos=ad.take(leaf, 0),
        threshold_neg=ad.take(leaf, 1),
        scale_logit=ad.take(leaf, 2),
    )


def make_objective(spec: MlpSpec, base: ParamSet, tv: TaskVector,
                   qspecs: dict[str, list[QuantSpec]], ref: np.ndarray,
                   batch_x: np.ndarray, kind: str, lam: float, temp: float,
                   rho: float, omega: float):
    """Build objective(leaves) for one batch; leaves may be arrays or Vars.

    Leaf keys are "<module>.gate" (threshold_pos, threshold_neg, scale
    logit) and "<module>.bits" (four width logits).
    """
    base_lookup = dict(base.modules)

    def objective(leaves, return_parts: bool = False):
        masks = []
        logit_sets = []
        params = {}
        for name, tau in tv.modules:
            gp = _gate_from_leaf(leaves[name + ".gate"])
            gate = soft_gate(tau, gp, rho)
            masks.append(gate.soft_mask)
            bl = BitLogits(leaves[name + ".bits"], omega)
            logit_sets.append(bl)
            blended = mixed_quantize(tau, bl, qspecs[name])
            params[name] = ad.add(base_lookup[name],
                                  ad.mul(gate.scaled_mask, blended))
        out = forward(spec, params, batch_x)
        cmp = out.features if kind == "cka" else out.logits
        l_per = preservation_loss(kind, ref, cmp, temperature=temp)
        l_sp = sparsity_loss(masks)
        l_bit = bit_regularizer(logit_sets)
        total = ad.add(ad.add(l_sp, l_bit), ad.mul(l_per, lam))
        if return_parts:
            parts = {"sparsity": float(ad._np(l_sp)),
                     "bits": float(ad._np(l_bit)),
                     "preserve": float(ad._np(l_per)),
                     "total": float(ad._np(total))}
            return total, parts
        return total
    return objective


def reference_outputs(spec: MlpSpec, finetuned: ParamSet,
                      exemplars: np.ndarray, kind: str) -> np.ndarray:
    """Cached fine-tuned outputs the preservation loss aligns against."""
    out = forward(spec, finetuned, exemplars)
    return ad._np(out.features if kind == "cka" else out.logits)


def train(tv: TaskVector, base: ParamSet, finetuned: ParamSet,
          exemplars: np.ndarray, spec: MlpSpec,
          config: TrainConfig = TrainConfig()) -> TrainResult:
    """Compress one task vector; deterministic for a fixed config and seed."""
    check_params(spec, base)
    check_aligned(base, finetuned)
    if tv.names != base.names:
        raise ValueError("task vector does not align with the base modules")
    exemplars = np.asarray(exemplars, dtype=np.float64)
    exemplars = exemplars[:config.exemplar_count]
    n_ex = exemplars.shape[0]
    if config.batch_size < 1 or n_ex < 1:
        raise ValueError("need a positive batch size and exemplar count")

    ref_all = reference_outputs(spec, finetuned, exemplars, config.loss_kind)
    qspecs = {name: [QuantSpec.from_values(tau, b) for b in CANDIDATE_WIDTHS]
              for name, tau in tv.modules}

    leaves: dict[str, np.ndarray] = {}
    for name, _ in tv.modules:
        leaves[name + ".gate"] = np.array([0.0, 0.0, INIT_SCALE_LOGIT])
        leaves[name + ".bits"] = np.zeros(len(CANDIDATE_WIDTHS))

    opt = Adam()
    batch_rng = rng_for(config.seed, "batches", tv.task_id)
    history: list[dict] = []

    for step in range(config.steps):
        rho = temperature_schedule(step)
        omega = temperature_schedule(step)
        idx = batch_rng.integers(0, n_ex, size=config.batch_size)
        obj = make_objective(spec, base, tv, qspecs, ref_all[idx],
                             exemplars[idx], config.loss_kind, config.lam,
                             config.softmax_temp, rho, omega)
        tape = ad.Tape()
        lvars = {k: tape.var(v) for k, v in leaves.items()}
        total, parts = obj(lvars, return_parts=True)
        if not math.isfinite(parts["total"]):
            raise TrainingDivergedError(step, parts)
        tape.backward(total)
        grads = {k: (lv.grad if lv.grad is not None
                     else np.zeros_like(leaves[k]))
                 for k, lv in lvars.items()}
        grads = clip_global_norm(grads, config.clip_norm)
        opt.start_step()
        for key in leaves:
            lr = config.lr_gate if key.endswith(".gate") else config.lr_bits
            leaves[key] = opt.update(key, leaves[key], grads[key], lr)
        history.append({"step": step, "rho": rho, "omega": omega, **parts})

    rho_final = temperature_schedule(config.steps)
    modules = []
    for name, tau in tv.modules:
        gate_leaf = leaves[name + ".gate"]
        gp = GateParams(*gate_leaf)
        mask = harden(soft_gate(tau, gp, rho_final).soft_mask)
        width = select_bitwidth(BitLogits(leaves[name + ".bits"]))
        # Serialization boundary: ranges and scale go to float32 here so the
        # in-memory vector and its encoded stream agree bit for bit.
        raw = qspecs[name][0]
        range_neg = float(np.float32(raw.range_neg))
        range_pos = float(np.float32(raw.range_pos))
        scale = float(np.float32(ad._np(ad.softplus(gate_leaf[2]))))
        spec32 = QuantSpec(width, range_neg, range_pos)
        support = np.flatnonzero(mask)
        bins = quantize_indices(tau[support], spec32) if support.size else \
            np.zeros(0, dtype=np.int64)
        modules.append((name, CompressedModule(
            length=tau.size, support=support, bins=bins, bit_width=width,
            range_neg=range_neg, range_pos=range_pos, scale=scale)))

    compressed = CompressedTaskVector(tv.task_id, modules)
    return TrainResult(
        compressed=compressed,
        history=history,
        gate_state={n + ".gate": leaves[n + ".gate"].copy() for n, _ in tv.modules},
        bit_state={n + ".bits": leaves[n + ".bits"].copy() for n, _ in tv.modules},
    )

