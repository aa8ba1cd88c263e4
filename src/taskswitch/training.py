"""Joint training of the gate logits and bit-width logits for one task.

Each step draws a batch of exemplars, builds the soft-gated mixed-width
task vector on a fresh tape, and minimizes

    sparsity term + bit term + lambda * preservation loss

with Adam on 7 scalars per module: a (3, L) array of gate logits (two
thresholds and a scale logit per module) and an (L, 4) array of width
logits, for L modules. All modules are laid end to end in one graph: the
constants (the flat task and base vectors, the four candidate
quantizations, the sign-class bounds, the gate denominators and the module
runs) are built once per run, and each step broadcasts the two arrays to
the elements, so the tape has the same number of nodes whatever the module
count. The fine-tuned reference outputs, and the preservation loss's side
of them (softmax(ref / T) and its log for kl), are computed once and
indexed per batch. After the last step the same gate function runs once
more on the final gate array at the post-run temperature: an element
survives where its soft membership exceeds 1/2, and each module keeps the
candidate width of its largest width logit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bitwidth import CANDIDATE_WIDTHS, QuantSpec, quantize, quantize_indices
from .codec import CompressedModule, EncodedModule, choose_format
from .losses import DEFAULT_LAMBDA, loss_from_side, reference_side
from .model import MlpSpec, flatten, forward
from .optim import Adam, clip_global_norm
from .seeding import batch_indices, rng_for
from .vectors import ParamSet, TaskVector, signed_bounds

EPS_RANGE = 1e-12  # guards the sigmoid denominator when a class is degenerate

INIT_SCALE_LOGIT = math.log(math.e - 1.0)  # softplus(.) == 1 at init

# The fixed training recipe: Adam step sizes of the gate and width logits,
# the global gradient-norm clip, and the temperature decay every interval.
LR_GATE, LR_BITS, CLIP_NORM = 0.05, 0.1, 10.0
TEMP_DECAY, TEMP_INTERVAL = 0.9, 10

WIDTHS = np.asarray(CANDIDATE_WIDTHS, dtype=np.float64)


def squash(s):
    """arctan(s)/pi + 0.5: monotone map of the real line onto (0, 1)."""
    return np.arctan(s) / math.pi + 0.5


def temperature_schedule(step: int) -> float:
    """Annealed gate temperature: TEMP_DECAY^(step // TEMP_INTERVAL)."""
    if step < 0:
        raise ValueError("step must be non-negative")
    return TEMP_DECAY ** (step // TEMP_INTERVAL)


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, components: dict[str, float],
                 quantity: str = "objective", unit: str = "step"):
        super().__init__(f"{quantity} became non-finite at {unit} {step}: "
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
    history: list[dict]
    gates: np.ndarray     # (3, L) final gate logits, column m for module m
    bits: np.ndarray      # (L, 4) final width logits, row m for module m


@dataclass(frozen=True)
class StackedModules:
    """Per-run constants of the objective: every module laid end to end.

    Row 0 of each (2, ...) array is the positive sign class, row 1 the
    negative one. A class that is empty in a module is switched off by
    `live` and its magnitudes set to 0, so it adds exactly nothing, even
    where the task vector is NaN.
    """

    sizes: np.ndarray     # (L,) elements per module
    base: np.ndarray      # (N,) base parameters
    signed: np.ndarray    # (2, N) tau and -tau
    live: np.ndarray      # (2, N) 1.0 where the element's class is populated
    lo: np.ndarray        # (2, L) smallest magnitude of each class
    ranges: np.ndarray    # (2, L) quantizer range of each class
    width: np.ndarray     # (2, L) ranges - lo, the magnitude span
    quant: np.ndarray     # (4, N) tau quantized at each candidate width
    # (L,) where each module begins: np.add.reduceat's runs. None is empty,
    # as MlpSpec refuses a zero width.
    starts: np.ndarray
    denom: np.ndarray     # (2, N) the gate's denominator over rho
    bit_norm: float       # the width term's normaliser

    @classmethod
    def build(cls, spec: MlpSpec, base: ParamSet,
              tv: TaskVector) -> "StackedModules":
        """Lay out base and tv in spec's layout; flatten checks both."""
        off = np.asarray(spec.offsets)
        sizes = np.diff(off)
        tau = flatten(spec, tv)
        modules = np.split(tau, off[1:-1])
        bounds = [signed_bounds(t) for t in modules]
        quant = [[quantize(t, QuantSpec(b, bd.neg_max, bd.pos_max))
                  for b in CANDIDATE_WIDTHS]
                 for t, bd in zip(modules, bounds)]
        has = np.array([[b.has_pos for b in bounds],
                        [b.has_neg for b in bounds]])
        live = np.repeat(has, sizes, axis=1)
        lo = np.array([[b.pos_min for b in bounds],
                       [b.neg_min for b in bounds]])
        ranges = np.array([[b.pos_max for b in bounds],
                           [b.neg_max for b in bounds]])
        width = ranges - lo
        return cls(sizes=sizes, base=flatten(spec, base),
                   signed=np.where(live, np.stack([tau, -tau]), 0.0),
                   live=live.astype(np.float64), lo=lo, ranges=ranges,
                   width=width, quant=np.concatenate(quant, axis=1),
                   starts=off[:-1],
                   denom=np.repeat(np.maximum(width, EPS_RANGE), sizes,
                                   axis=1),
                   bit_norm=float(sizes.size * max(CANDIDATE_WIDTHS)))


def _gate(sm: StackedModules, gates, rho: float):
    """Learnable gating over all modules: each element's soft membership.

    gates is the (3, L) gate-logit array or Var: two threshold logits
    place one threshold inside each sign class's magnitude range through
    `squash`, and a temperature-scaled sigmoid per class gives each
    element's soft membership (N,). On a tape it is one node over gates;
    its backward is that of the chain of small ops it replaces, operation
    for operation.
    """
    gv = ad._np(gates)
    denom = rho * sm.denom
    thresholds = sm.lo + squash(gv[:2]) * sm.width
    z = (sm.signed - np.repeat(thresholds, sm.sizes, axis=-1)) / denom
    member = ad.sigmoid.fwd(z)

    def vjp(g):
        g_z = ad.sigmoid.vjp(g * sm.live, z, member) / denom
        g_thr = np.add.reduceat(-g_z, sm.starts, axis=-1)
        grad = np.zeros_like(gv)
        grad[:2] = ad.arctan.vjp(g_thr * sm.width / math.pi, gv[:2], None)
        return (grad,)
    return ad.record((gates,), (member * sm.live).sum(axis=0), vjp)


def _mix(sm: StackedModules, gates, soft, w):
    """base + scale * soft * blend over all elements, one node.

    scale is the softplus of each module's scale logit, row 2 of gates.
    The blend weighs the four candidate quantizations in sm.quant by each
    module's (L, 4) width weights w. The backward is that of the softplus,
    repeats, products and sums as separate nodes, operation for operation.
    """
    gv, mv, wv = ad._np(gates), ad._np(soft), ad._np(w)
    scale = ad.softplus.fwd(gv[2])
    rep = np.repeat(scale, sm.sizes, axis=-1)
    gated = rep * mv
    blended = (np.repeat(wv.T, sm.sizes, axis=-1) * sm.quant).sum(axis=0)

    def vjp(g):
        g_gated = g * blended
        g_gates = np.zeros_like(gv)
        g_gates[2] = ad.softplus.vjp(
            np.add.reduceat(g_gated * mv, sm.starts, axis=-1), gv[2], scale)
        return (g_gates, g_gated * rep,
                np.add.reduceat(g * gated * sm.quant, sm.starts, axis=-1).T)
    return ad.record((gates, soft, w), sm.base + gated * blended, vjp)


def _total(sm: StackedModules, soft, w, preserve, lam: float):
    """sparsity + bits + lam * preserve, one node, and its parts.

    The sparsity term is the mean soft membership, summed module by module
    first; the bit term the expected candidate width summed over modules,
    over sm.bit_norm.
    """
    n, norm = np.asarray(float(sm.base.size)), np.asarray(sm.bit_norm)
    wv = ad._np(w)
    sparsity = np.add.reduceat(ad._np(soft), sm.starts, axis=-1).sum() / n
    bits = (wv * WIDTHS).sum(axis=1).sum() / norm
    value = (sparsity + bits) + ad._np(preserve) * lam
    parts = {"sparsity": float(sparsity), "bits": float(bits),
             "preserve": float(ad._np(preserve)), "total": float(value)}
    return ad.record((soft, w, preserve), value, lambda g: (
        np.full(sm.base.shape, g / n), np.full(wv.shape, g / norm) * WIDTHS,
        g * lam)), parts


def make_objective(spec: MlpSpec, sm: StackedModules,
                   side: tuple[np.ndarray, ...], batch_x: np.ndarray,
                   kind: str, lam: float, temp: float, rho: float,
                   omega: float):
    """Build objective(leaves) for one batch: one graph for all modules.

    leaves maps "gates" to the (3, L) gate logits (threshold_pos,
    threshold_neg and scale logit per module) and "bits" to the (L, 4)
    width logits, arrays or Vars. Per-module values reach the elements
    inside the fused gate and mix nodes, and the mix's flat output is the
    network node's parameter vector, so the tape has the same number of
    nodes whatever the module count. side is losses.reference_side of the
    batch's reference outputs.
    """
    depth = _compared_depth(spec, kind)

    def objective(leaves):
        soft = _gate(sm, leaves["gates"], rho)
        # Bit-width selection: softmax over the four candidates per module.
        w = ad.softmax(leaves["bits"], temperature=omega)
        out = forward(spec, _mix(sm, leaves["gates"], soft, w), batch_x,
                      depth)
        return _total(sm, soft, w,
                      loss_from_side(kind, side, out, temperature=temp), lam)
    return objective


def _compared_depth(spec: MlpSpec, kind: str) -> int | None:
    """The layers whose output the preservation loss compares: the
    penultimate features for cka, the logits otherwise."""
    return spec.n_layers - 1 if kind == "cka" else None


def reference_outputs(spec: MlpSpec, finetuned: ParamSet,
                      exemplars: np.ndarray, kind: str) -> np.ndarray:
    """Cached fine-tuned outputs the preservation loss aligns against."""
    return forward(spec, finetuned, exemplars, _compared_depth(spec, kind))


# A step whose objective or gradient norm is not finite raises
# TrainingDivergedError naming it; numpy's floating-point warnings on the
# way there would only repeat that, as source lines on stderr.
@np.errstate(all="ignore")
def train(tv: TaskVector, base: ParamSet, finetuned: ParamSet,
          exemplars: np.ndarray, spec: MlpSpec,
          config: TrainConfig = TrainConfig()) -> TrainResult:
    """Compress one task vector; deterministic for a fixed config and seed.
    flatten refuses a base, fine-tuned set or task vector unlike spec."""
    exemplars = np.asarray(exemplars, dtype=np.float64)
    exemplars = exemplars[:config.exemplar_count]
    n_ex = exemplars.shape[0]
    if config.batch_size < 1 or n_ex < 1:
        raise ValueError("need a positive batch size and exemplar count")
    if config.loss_kind == "cka" and config.batch_size < 2:
        raise ValueError("the cka loss needs a batch size of at least 2, "
                         f"got {config.batch_size}")

    stacked = StackedModules.build(spec, base, tv)
    ref_all = reference_outputs(spec, finetuned, exemplars, config.loss_kind)
    side_all = reference_side(config.loss_kind, ref_all, config.softmax_temp)

    n_mod = len(spec.offsets) - 1
    leaves = {"gates": np.tile([[0.0], [0.0], [INIT_SCALE_LOGIT]], n_mod),
              "bits": np.zeros((n_mod, len(CANDIDATE_WIDTHS)))}
    opts = {"gates": Adam(), "bits": Adam()}
    batches = batch_indices(rng_for(config.seed, "batches", tv.task_id),
                            n_ex, config.batch_size, config.steps)
    history: list[dict] = []

    for step, idx in enumerate(batches):
        rho = omega = temperature_schedule(step)
        obj = make_objective(spec, stacked, tuple(a[idx] for a in side_all),
                             exemplars[idx], config.loss_kind, config.lam,
                             config.softmax_temp, rho, omega)
        (_, parts), grads = ad.value_and_grad(obj, leaves)
        if not math.isfinite(parts["total"]):
            raise TrainingDivergedError(step, parts)
        try:
            grads = clip_global_norm(grads, CLIP_NORM)
        except FloatingPointError:
            raise TrainingDivergedError(step, parts, "gradient norm") \
                from None
        leaves = {key: opts[key].step(leaves[key], grads[key], lr)
                  for key, lr in (("gates", LR_GATE), ("bits", LR_BITS))}
        history.append({"step": step, "rho": rho, "omega": omega, **parts})

    gates, bits = leaves["gates"], leaves["bits"]
    soft = _gate(stacked, gates, temperature_schedule(config.steps))
    scales = ad.softplus.fwd(gates[2])
    masks = np.split(soft > 0.5, spec.offsets[1:-1])
    modules = []
    for m, ((name, tau), mask) in enumerate(zip(tv.modules, masks)):
        # Ties between width logits resolve toward the smaller width.
        width = CANDIDATE_WIDTHS[int(np.argmax(bits[m]))]
        # Serialization boundary: ranges and scale go to float32 here so the
        # in-memory vector and its encoded stream agree bit for bit.
        range_pos, range_neg = (float(np.float32(r))
                                for r in stacked.ranges[:, m])
        spec32 = QuantSpec(width, range_neg, range_pos)
        support = np.flatnonzero(mask)
        bins = quantize_indices(tau[support], spec32)
        modules.append((name, CompressedModule(
            length=tau.size, support=support, bins=bins, bit_width=width,
            range_neg=range_neg, range_pos=range_pos,
            scale=float(np.float32(scales[m])))))

    compressed = CompressedTaskVector(tv.task_id, modules)
    return TrainResult(compressed, history, gates, bits)
