"""Small MLP classifier expressed over flat per-module parameter vectors.

Module names follow "layer{i}.weight" / "layer{i}.bias"; weights are stored
row-major flattened (out x in). The penultimate activation doubles as the
feature extractor for query building.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .seeding import rng_for
from .vectors import ParamSet, StructureError

ACTIVATIONS = {"tanh": ad.tanh, "relu": ad.relu}


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths input..output plus the hidden activation."""

    widths: tuple[int, ...] = (16, 32, 4)
    activation: str = "tanh"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

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
        """Parse a stored layout; a bad field raises StructureError naming it."""
        if not isinstance(d, dict):
            raise StructureError("model layout is not a JSON object")
        widths = d.get("widths")
        if (not isinstance(widths, list) or len(widths) < 2
                or not all(type(w) is int and w > 0 for w in widths)):
            raise StructureError("model.widths is not a list of at least two "
                                 "positive integers")
        activation = d.get("activation")
        if not isinstance(activation, str) or activation not in ACTIVATIONS:
            raise StructureError(f"model.activation is not one of "
                                 f"{', '.join(ACTIVATIONS)}")
        return cls(tuple(widths), activation)


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
    expected = spec.module_shapes()
    if params.names != [n for n, _ in expected]:
        raise ValueError(
            f"parameter set does not match spec: {params.names} vs "
            f"{[n for n, _ in expected]}")
    for (name, shape), (_, v) in zip(expected, params.modules):
        if ad._np(v).size != int(np.prod(shape)):
            raise ValueError(f"module {name!r}: wrong size")


@dataclass
class ForwardResult:
    logits: object     # (batch, classes)
    features: object   # penultimate activation, (batch, feature_dim)


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
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        w = ad.reshape(lookup[f"layer{i}.weight"], (fan_out, fan_in))
        b = lookup[f"layer{i}.bias"]
        z = ad.add(ad.matmul(a, ad.transpose(w)), b)
        if i < spec.n_layers - 1:
            a = act(z)
        else:
            return ForwardResult(logits=z, features=a)
    raise AssertionError("unreachable")


def cross_entropy(logits, labels: np.ndarray):
    """Mean negative log-likelihood of the integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    batch = labels.shape[0]
    n_classes = ad._np(logits).shape[1]
    onehot = np.zeros((batch, n_classes))
    onehot[np.arange(batch), labels] = 1.0
    log_p = ad.log_softmax(logits, axis=-1)
    return ad.mul(ad.sum_(ad.mul(log_p, onehot)), -1.0 / batch)


def predict(spec: MlpSpec, params: ParamSet, x: np.ndarray) -> np.ndarray:
    logits = ad._np(forward(spec, params, x).logits)
    return np.argmax(logits, axis=1)


def accuracy(spec: MlpSpec, params: ParamSet, x: np.ndarray,
             y: np.ndarray) -> float:
    return float(np.mean(predict(spec, params, x) == np.asarray(y)))


def features(spec: MlpSpec, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Penultimate activations as plain arrays (the query features)."""
    return ad._np(forward(spec, params, x).features)
