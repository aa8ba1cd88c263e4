"""Tape-size guard: one compression step records a graph of fixed size.

The objective lays every module into one graph over two leaf arrays, so
adding modules adds only the forward pass through the extra layers. A return
to one subgraph per module grows the tape by dozens of nodes per module and
fails here.
"""

import numpy as np

from taskswitch import autodiff as ad
from taskswitch import MlpSpec, TaskVector, TrainConfig, add, init_params, train

MAX_NODES_DESK = 90          # widths 16,32,4: four modules
MAX_GROWTH_4_TO_10 = 40      # three more layers; still two leaf arrays


def _nodes_per_step(monkeypatch, widths) -> int:
    spec = MlpSpec(widths)
    rng = np.random.default_rng(0)
    base = init_params(spec, seed=0)
    tv = TaskVector("t", [(n, 0.1 * rng.standard_normal(v.size))
                          for n, v in base.modules])
    exemplars = rng.standard_normal((16, spec.input_dim))
    seen = []
    backward = ad.Tape.backward

    def counting_backward(tape, out):
        seen.append(len(tape._nodes))
        return backward(tape, out)

    monkeypatch.setattr(ad.Tape, "backward", counting_backward)
    train(tv, base, add(base, tv), exemplars, spec,
          TrainConfig(steps=1, exemplar_count=16, batch_size=8))
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0]


def test_desk_step_is_small(monkeypatch):
    assert _nodes_per_step(monkeypatch, (16, 32, 4)) <= MAX_NODES_DESK


def test_step_size_flat_in_module_count(monkeypatch):
    four = _nodes_per_step(monkeypatch, (16, 32, 4))
    ten = _nodes_per_step(monkeypatch, (16, 32, 32, 32, 32, 4))
    assert ten - four <= MAX_GROWTH_4_TO_10, (four, ten)
