"""Joint training of the gate logits and bit-width logits for one task.

Each step draws a batch of exemplars, builds the soft-gated mixed-width
task vector on a fresh tape, and minimizes

    sparsity term + bit term + lambda * preservation loss

with Adam on 7 scalars per module: a (3, L) array of gate logits (two
thresholds and a scale logit per module) and an (L, 4) array of width
logits, for L modules. All modules are laid end to end in one graph: the
constants (the concatenated task and base vectors, the four candidate
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
from .model import MlpSpec, check_params, forward
from .optim import Adam, clip_global_norm
from .seeding import rng_for
from .vectors import ParamSet, TaskVector, check_aligned, signed_bounds

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

    names: list[str]
    sizes: np.ndarray     # (L,) elements per module
    base: np.ndarray      # (N,) base parameters
    signed: np.ndarray    # (2, N) tau and -tau
    live: np.ndarray      # (2, N) 1.0 where the element's class is populated
    lo: np.ndarray        # (2, L) smallest magnitude of each class
    ranges: np.ndarray    # (2, L) quantizer range of each class
    width: np.ndarray     # (2, L) ranges - lo, the magnitude span
    quant: np.ndarray     # (4, N) tau quantized at each candidate width
    runs: ad.Runs         # the modules as runs of the element axis
    denom: np.ndarray     # (2, N) the gate's denominator over rho
    spans: list           # (name, start, stop) of each module's elements
    bit_norm: float       # the width term's normaliser

    @classmethod
    def build(cls, base: ParamSet, tv: TaskVector) -> "StackedModules":
        base_lookup = dict(base.modules)
        specs = [[QuantSpec.from_values(tau, b) for b in CANDIDATE_WIDTHS]
                 for _, tau in tv.modules]
        quant = [[quantize(tau, q) for q in qs]
                 for (_, tau), qs in zip(tv.modules, specs)]
        bounds = [signed_bounds(tau) for _, tau in tv.modules]
        sizes = np.array([tau.size for _, tau in tv.modules])
        has = np.array([[b.has_pos for b in bounds],
                        [b.has_neg for b in bounds]])
        live = np.repeat(has, sizes, axis=1)
        tau = np.concatenate([tau for _, tau in tv.modules])
        lo = np.array([[b.pos_min for b in bounds],
                       [b.neg_min for b in bounds]])
        ranges = np.array([[qs[0].range_pos for qs in specs],
                           [qs[0].range_neg for qs in specs]])
        width = ranges - lo
        ends = np.cumsum(sizes)
        return cls(names=tv.names, sizes=sizes,
                   base=np.concatenate([base_lookup[n] for n in tv.names]),
                   signed=np.where(live, np.stack([tau, -tau]), 0.0),
                   live=live.astype(np.float64), lo=lo, ranges=ranges,
                   width=width, quant=np.concatenate(quant, axis=1),
                   runs=ad.Runs.of(sizes),
                   denom=np.repeat(np.maximum(width, EPS_RANGE), sizes,
                                   axis=1),
                   spans=list(zip(tv.names, ends - sizes, ends)),
                   bit_norm=float(len(tv.names) * max(CANDIDATE_WIDTHS)))


def _gate(sm: StackedModules, gates, rho: float):
    """Learnable gating over all modules: (soft membership, scale).

    gates is the (3, L) gate-logit array or Var: two threshold logits
    place one threshold inside each sign class's magnitude range through
    `squash`, a temperature-scaled sigmoid per class gives each element's
    soft membership (N,), and a softplus gives each module's scale (L,).
    On a tape each result is one node over gates; their backward is that
    of the chain of small ops they replace, operation for operation.
    """
    gv = ad._np(gates)
    denom = rho * sm.denom
    thresholds = sm.lo + squash(gv[:2]) * sm.width
    z = (sm.signed - np.repeat(thresholds, sm.sizes, axis=-1)) / denom
    member = ad.sigmoid.fwd(z)
    scale = ad.softplus.fwd(gv[2])

    def soft_vjp(g):
        g_z = ad.sigmoid.vjp(g * sm.live, z, member) / denom
        g_thr = ad._segment_sums(-g_z, sm.runs)
        grad = np.zeros_like(gv)
        grad[:2] = ad.arctan.vjp(g_thr * sm.width / math.pi, gv[:2], None)
        return (grad,)

    def scale_vjp(g):
        grad = np.zeros_like(gv)
        grad[2] = ad.softplus.vjp(g, gv[2], scale)
        return (grad,)
    return (ad.record((gates,), (member * sm.live).sum(axis=0), soft_vjp),
            ad.record((gates,), scale, scale_vjp))


def _mix(sm: StackedModules, scale, soft, w):
    """base + scale * soft * blend over all elements, one node.

    The blend weighs the four candidate quantizations in sm.quant by each
    module's (L, 4) width weights w. The backward is that of the repeats,
    products and sums as separate nodes, operation for operation.
    """
    sv, mv, wv = ad._np(scale), ad._np(soft), ad._np(w)
    rep = np.repeat(sv, sm.sizes, axis=-1)
    gated = rep * mv
    blended = (np.repeat(wv.T, sm.sizes, axis=-1) * sm.quant).sum(axis=0)

    def vjp(g):
        g_gated = g * blended
        return (ad._segment_sums(g_gated * mv, sm.runs), g_gated * rep,
                ad._segment_sums(g * gated * sm.quant, sm.runs).T)
    return ad.record((scale, soft, w), sm.base + gated * blended, vjp)


def _sparsity_term(sm: StackedModules, soft):
    """Mean soft membership, summed module by module first; one node."""
    n = np.asarray(float(sm.base.size))
    value = ad._segment_sums(ad._np(soft), sm.runs).sum() / n
    return ad.record((soft,), value,
                     lambda g: (np.full(sm.base.shape, g / n),))


def _width_term(w, norm: float):
    """Expected candidate width summed over modules, over norm; one node."""
    wv, norm = ad._np(w), np.asarray(norm)
    value = (wv * WIDTHS).sum(axis=1).sum() / norm
    return ad.record((w,), value,
                     lambda g: (np.full(wv.shape, g / norm) * WIDTHS,))


def _slice(flat, start: int, stop: int):
    """flat[start:stop], one node; the gradient scatters back to the span."""
    fv = ad._np(flat)

    def vjp(g):
        grad = np.zeros_like(fv)
        grad[start:stop] = g
        return (grad,)
    return ad.record((flat,), fv[start:stop], vjp)


def make_objective(spec: MlpSpec, sm: StackedModules,
                   side: tuple[np.ndarray, ...], batch_x: np.ndarray,
                   kind: str, lam: float, temp: float, rho: float,
                   omega: float):
    """Build objective(leaves) for one batch: one graph for all modules.

    leaves maps "gates" to the (3, L) gate logits (threshold_pos,
    threshold_neg and scale logit per module) and "bits" to the (L, 4)
    width logits, arrays or Vars. Per-module values reach the elements
    inside the fused gate and mix nodes, so the tape has the same number of
    nodes whatever the module count, apart from the forward pass. side is
    losses.reference_side of the batch's reference outputs.
    """

    def objective(leaves, return_parts: bool = False):
        soft, scale = _gate(sm, leaves["gates"], rho)
        # Bit-width selection: softmax over the four candidates per module.
        bits = leaves["bits"]
        w = ad.softmax(ad.record((bits,), ad._np(bits) / omega,
                                 lambda g: (g / omega,)))
        flat = _mix(sm, scale, soft, w)
        params = {n: _slice(flat, a, b) for n, a, b in sm.spans}
        out = forward(spec, params, batch_x)
        cmp = out.features if kind == "cka" else out.logits
        l_per = loss_from_side(kind, side, cmp, temperature=temp)
        l_sp = _sparsity_term(sm, soft)
        l_bit = _width_term(w, sm.bit_norm)
        total = ad.record(
            (l_sp, l_bit, l_per),
            (ad._np(l_sp) + ad._np(l_bit)) + ad._np(l_per) * lam,
            lambda g: (g, g, g * lam))
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


# A step whose objective or gradient norm is not finite raises
# TrainingDivergedError naming it; numpy's floating-point warnings on the
# way there would only repeat that, as source lines on stderr.
@np.errstate(all="ignore")
def train(tv: TaskVector, base: ParamSet, finetuned: ParamSet,
          exemplars: np.ndarray, spec: MlpSpec,
          config: TrainConfig = TrainConfig()) -> TrainResult:
    """Compress one task vector; deterministic for a fixed config and seed."""
    check_params(spec, base)
    check_aligned(base, finetuned)
    check_aligned(base, tv)
    exemplars = np.asarray(exemplars, dtype=np.float64)
    exemplars = exemplars[:config.exemplar_count]
    n_ex = exemplars.shape[0]
    if config.batch_size < 1 or n_ex < 1:
        raise ValueError("need a positive batch size and exemplar count")

    ref_all = reference_outputs(spec, finetuned, exemplars, config.loss_kind)
    side_all = reference_side(config.loss_kind, ref_all, config.softmax_temp)
    stacked = StackedModules.build(base, tv)

    leaves = {"gates": np.tile([[0.0], [0.0], [INIT_SCALE_LOGIT]],
                               len(stacked.names)),
              "bits": np.zeros((len(stacked.names), len(CANDIDATE_WIDTHS)))}
    opts = {"gates": Adam(), "bits": Adam()}
    batch_rng = rng_for(config.seed, "batches", tv.task_id)
    history: list[dict] = []

    for step in range(config.steps):
        rho = omega = temperature_schedule(step)
        idx = batch_rng.integers(0, n_ex, size=config.batch_size)
        obj = make_objective(spec, stacked, tuple(a[idx] for a in side_all),
                             exemplars[idx], config.loss_kind, config.lam,
                             config.softmax_temp, rho, omega)
        (_, parts), grads = ad.value_and_grad(
            lambda lv: obj(lv, return_parts=True), leaves)
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
    soft, scales = _gate(stacked, gates, temperature_schedule(config.steps))
    masks = np.split(soft > 0.5, np.cumsum(stacked.sizes)[:-1])
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
