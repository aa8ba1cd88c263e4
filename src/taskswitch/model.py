"""Small MLP classifier expressed over flat per-module parameter vectors.

MlpSpec.layers states the layout once: module names, fans and which layers
take the hidden activation; MlpSpec.offsets places every module in the flat
parameter vector that forward, both training loops and the merged forward
run on. The penultimate activation, forward to the last hidden layer,
doubles as the feature extractor for query building.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .seeding import rng_for
from .vectors import ParamSet, StructureError, _check_modules

ACTIVATIONS = {"tanh": ad.tanh, "relu": ad.relu}


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths input..output plus the hidden activation."""

    widths: tuple[int, ...] = (16, 32, 4)
    activation: str = "tanh"

    def __post_init__(self):
        """The one layout rule, for layouts made in code or read by
        from_dict; a bad field raises StructureError naming it."""
        if (not isinstance(self.widths, tuple) or len(self.widths) < 2
                or not all(type(w) is int and w > 0 for w in self.widths)):
            raise StructureError("model.widths is not a list of at least two "
                                 "positive integers")
        if not isinstance(self.activation, str) \
                or self.activation not in ACTIVATIONS:
            raise StructureError(f"model.activation is not one of "
                                 f"{', '.join(ACTIVATIONS)}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    @property
    def feature_dim(self) -> int:
        """Width of the penultimate activation (the feature extractor)."""
        return self.widths[-2]

    @cached_property
    def layers(self) -> tuple[tuple, ...]:
        """(weight name, bias name, fan in, fan out, activation) per layer,
        input layer first, built once: the layer rule every pass reads. A
        weight is stored (fan out, fan in); the output layer's act is None."""
        act = ACTIVATIONS[self.activation]
        return tuple((f"layer{i}.weight", f"layer{i}.bias", fan_in, fan_out,
                      act if i < self.n_layers - 1 else None)
                     for i, (fan_in, fan_out)
                     in enumerate(zip(self.widths, self.widths[1:])))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Where each module begins in the flat parameter vector, and where
        the last one ends: the vector holds every module end to end, in
        module_names() order, so layer i's weight is [offsets[2i],
        offsets[2i + 1]) and its bias runs on to offsets[2i + 2]."""
        return tuple(accumulate((math.prod(shape) for _, shape
                                 in self.module_shapes()), initial=0))

    def module_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return [shape for wname, bname, fan_in, fan_out, _ in self.layers
                for shape in ((wname, (fan_out, fan_in)), (bname, (fan_out,)))]

    def module_names(self) -> list[str]:
        return [name for layer in self.layers for name in layer[:2]]

    def to_dict(self) -> dict:
        return {"widths": list(self.widths), "activation": self.activation}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        """Parse a stored layout."""
        if not isinstance(d, dict):
            raise StructureError("model layout is not a JSON object")
        widths = d.get("widths")
        return cls(tuple(widths) if isinstance(widths, list) else widths,
                   d.get("activation"))


def init_params(spec: MlpSpec, seed: int) -> ParamSet:
    """Scaled-normal init: std 1/sqrt(fan_in) for weights, zero biases."""
    rng = rng_for(seed, "init")
    mods = []
    for wname, bname, fan_in, fan_out, _ in spec.layers:
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
        mods += [(wname, w.reshape(-1)), (bname, np.zeros(fan_out))]
    return ParamSet(mods)


def check_params(spec: MlpSpec, params: ParamSet) -> None:
    """Raise StructureError naming the first module where params differs
    from spec's modules, in name, size or count."""
    off = spec.offsets
    _check_modules(spec.module_names(), map(operator.sub, off[1:], off),
                   params.modules)


def flatten(spec: MlpSpec, params) -> np.ndarray:
    """A ParamSet, checked by check_params, as one fresh flat vector (every
    module end to end, in order); a flat array or Var of spec's size comes
    back as is, and any other shape raises StructureError naming both."""
    if not isinstance(params, ParamSet):
        shape = ad._np(params).shape
        if shape != spec.offsets[-1:]:
            raise StructureError(f"flat parameters of shape {shape}, the "
                                 f"model's shape is {spec.offsets[-1:]}")
        return params
    check_params(spec, params)
    return np.concatenate([v for _, v in params.modules])


def unflatten(spec: MlpSpec, flat: np.ndarray) -> ParamSet:
    """The ParamSet whose modules are the runs of a flat vector."""
    return ParamSet(list(zip(spec.module_names(),
                             np.split(flat, spec.offsets[1:-1]))))


def forward(spec: MlpSpec, params, x: np.ndarray, depth: int | None = None):
    """The last activation of the network's first depth layers, one node.

    depth None runs every layer and gives the logits; spec.n_layers - 1
    gives the penultimate features. params is the flat parameter vector,
    an array or a Var, or a ParamSet, which flatten checks and lays out;
    rows of x of another width than spec's input raise StructureError.
    The backward writes each layer's weight and bias gradients into one
    fresh flat array (zeros for the layers past depth), from the numpy
    operations of the reshape, transpose, matmul, bias add and activation
    as separate nodes, operation for operation.
    """
    params = flatten(spec, params)
    pv = ad._np(params)
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if a.ndim != 2 or a.shape[1] != spec.input_dim:
        raise StructureError(f"rows of width {a.shape[-1]}, the model's "
                             f"input width is {spec.input_dim}")
    run = []
    for i, (_, _, fan_in, fan_out, act) in enumerate(spec.layers[:depth]):
        w0, b0, end = spec.offsets[2 * i:2 * i + 3]
        w2 = pv[w0:b0].reshape(fan_out, fan_in)
        z = a @ w2.T + pv[b0:end]
        out = z if act is None else act.fwd(z)
        run.append((a, w2, z, out, act, w0, b0, end))
        a = out

    def vjp(g):
        grad = np.empty_like(pv)
        grad[spec.offsets[2 * len(run)]:] = 0.0
        for i in reversed(range(len(run))):
            a_in, w2, z, out, act, w0, b0, stop = run[i]
            gz = g if act is None else act.vjp(g, z, out)
            grad[w0:b0].reshape(w2.shape)[...] = (a_in.T @ gz).T
            grad[b0:stop] = gz.sum(axis=0)
            if i:
                g = gz @ w2
        return (grad,)
    return ad.record((params,), a, vjp)


def cross_entropy(logits, onehot: np.ndarray):
    """Mean negative log-likelihood of the labels whose one-hot rows are
    onehot, one tape node."""
    log_p, e, s = ad.log_softmax_parts(ad._np(logits))
    factor = np.asarray(-1.0 / onehot.shape[0])

    def vjp(g):
        return (ad.log_softmax_vjp(g * factor * onehot, e, s),)
    return ad.record((logits,), (log_p * onehot).sum() * factor, vjp)


def predict(spec: MlpSpec, params: ParamSet, x: np.ndarray) -> np.ndarray:
    return np.argmax(forward(spec, params, x), axis=1)


def accuracy(spec: MlpSpec, params: ParamSet, x: np.ndarray,
             y: np.ndarray) -> float:
    return float(np.mean(predict(spec, params, x) == np.asarray(y)))


def features(spec: MlpSpec, params, x: np.ndarray) -> np.ndarray:
    """Penultimate activations (the query features), from forward."""
    return forward(spec, params, x, spec.n_layers - 1)
