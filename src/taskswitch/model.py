"""Small MLP classifier expressed over flat per-module parameter vectors.

Module names follow "layer{i}.weight" / "layer{i}.bias"; weights are stored
row-major flattened (out x in). The penultimate activation doubles as the
feature extractor for query building.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .seeding import rng_for
from .vectors import ParamSet, StructureError, check_aligned

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

    def module_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        shapes = []
        for i in range(self.n_layers):
            fan_in, fan_out = self.widths[i], self.widths[i + 1]
            shapes.append((f"layer{i}.weight", (fan_out, fan_in)))
            shapes.append((f"layer{i}.bias", (fan_out,)))
        return shapes

    def module_names(self) -> list[str]:
        return [name for name, _ in self.module_shapes()]

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
    for name, shape in spec.module_shapes():
        if name.endswith(".weight"):
            fan_in = shape[1]
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
            mods.append((name, w.reshape(-1)))
        else:
            mods.append((name, np.zeros(shape)))
    return ParamSet(mods)


def check_params(spec: MlpSpec, params: ParamSet) -> None:
    """Raise StructureError unless params has spec's modules, in order."""
    check_aligned(ParamSet([(name, np.empty(shape)) for name, shape
                            in spec.module_shapes()]), params)


@dataclass
class ForwardResult:
    logits: object     # (batch, classes)
    features: object   # penultimate activation, (batch, feature_dim)


def dense(a, w, b, fan_out: int, act=None):
    """act(a @ w.reshape(fan_out, -1).T + b) as one tape node.

    act is an ACTIVATIONS pair or None (the output layer). The backward is
    that of the reshape, transpose, matmul, bias add and activation as
    separate nodes, operation for operation.
    """
    av, wv, bv = ad._np(a), ad._np(w), ad._np(b)
    w2 = wv.reshape(fan_out, -1)
    z = av @ w2.T + bv
    out = z if act is None else act.fwd(z)

    def vjp(g):
        gz = g if act is None else act.vjp(g, z, out)
        return (gz @ w2 if isinstance(a, ad.Var) else None,
                (av.T @ gz).T.reshape(wv.shape), ad._unbroadcast(gz, bv.shape))
    return ad.record((a, w, b), out, vjp)


def forward(spec: MlpSpec, params, x: np.ndarray) -> ForwardResult:
    """Run the network. params is a ParamSet or a name -> Var/array mapping."""
    if isinstance(params, ParamSet):
        lookup = dict(params.modules)
    else:
        lookup = dict(params)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    act = ACTIVATIONS[spec.activation]
    a = x
    for i in range(spec.n_layers):
        w, b = lookup[f"layer{i}.weight"], lookup[f"layer{i}.bias"]
        if i < spec.n_layers - 1:
            a = dense(a, w, b, spec.widths[i + 1], act)
        else:
            return ForwardResult(logits=dense(a, w, b, spec.widths[i + 1]),
                                 features=a)
    raise AssertionError("unreachable")


def cross_entropy(logits, labels: np.ndarray):
    """Mean negative log-likelihood of the integer labels, one tape node."""
    labels = np.asarray(labels, dtype=np.int64)
    batch = labels.shape[0]
    lv = ad._np(logits)
    onehot = np.zeros((batch, lv.shape[1]))
    onehot[np.arange(batch), labels] = 1.0
    log_p, e, s = ad.log_softmax_parts(lv)
    factor = np.asarray(-1.0 / batch)

    def vjp(g):
        return (ad.log_softmax_vjp(g * factor * onehot, e, s),)
    return ad.record((logits,), (log_p * onehot).sum() * factor, vjp)


def predict(spec: MlpSpec, params: ParamSet, x: np.ndarray) -> np.ndarray:
    logits = ad._np(forward(spec, params, x).logits)
    return np.argmax(logits, axis=1)


def accuracy(spec: MlpSpec, params: ParamSet, x: np.ndarray,
             y: np.ndarray) -> float:
    return float(np.mean(predict(spec, params, x) == np.asarray(y)))


def features(spec: MlpSpec, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Penultimate activations as plain arrays (the query features)."""
    return ad._np(forward(spec, params, x).features)
