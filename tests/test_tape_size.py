"""Tape-size guard: one training step records a graph of fixed, small size.

The compression objective lays every module into one graph over two leaf
arrays, and the dense layers, the losses and the objective's pieces are
fused nodes, one per formula: at desk scale the two leaves, the gate, the
width softmax, the mix, four slices, two dense layers, the preservation
loss and the total, 13 in all. Adding modules adds only one dense node and
two slices per layer. The metric objective is one node over the
projection. A return to one subgraph per module, to a glue node between
formulas, or to the chains of small ops the fused nodes replace (62 nodes
per desk compression step, 21 per desk fine-tune step, 30 per metric
epoch), fails here.
"""

import numpy as np

from taskswitch import autodiff as ad
from taskswitch import (MlpSpec, ReferenceIndex, TaskVector, TrainConfig, add,
                        fine_tune, init_params, train, train_metric)

MAX_NODES_DESK = 13          # widths 16,32,4: four modules; 13 recorded
MAX_GROWTH_4_TO_10 = 12      # three more layers; 9 recorded
MAX_NODES_FINE_TUNE = 8      # widths 16,32,4: 4 leaves, 2 layers, the loss
MAX_NODES_METRIC_EPOCH = 2   # the projection leaf and the objective


def _counting(monkeypatch) -> list:
    seen = []
    backward = ad.Tape.backward

    def counting_backward(tape, out):
        seen.append(len(tape._nodes))
        return backward(tape, out)

    monkeypatch.setattr(ad.Tape, "backward", counting_backward)
    return seen


def _nodes_per_step(monkeypatch, widths) -> int:
    spec = MlpSpec(widths)
    rng = np.random.default_rng(0)
    base = init_params(spec, seed=0)
    tv = TaskVector("t", [(n, 0.1 * rng.standard_normal(v.size))
                          for n, v in base.modules])
    exemplars = rng.standard_normal((16, spec.input_dim))
    seen = _counting(monkeypatch)
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


def test_desk_fine_tune_step_is_small(monkeypatch):
    spec = MlpSpec((16, 32, 4))
    rng = np.random.default_rng(1)
    seen = _counting(monkeypatch)
    fine_tune(spec, init_params(spec, seed=1), rng.standard_normal((16, 16)),
              rng.integers(0, 4, size=16), steps=2, batch_size=8)
    monkeypatch.undo()
    assert len(seen) == 2
    assert max(seen) <= MAX_NODES_FINE_TUNE


def test_metric_epoch_is_one_node(monkeypatch):
    rng = np.random.default_rng(2)
    index = ReferenceIndex(["a", "b"], rng.normal(size=(6, 4)),
                           np.repeat([0, 1], 3), np.eye(4))
    seen = _counting(monkeypatch)
    train_metric(index, [("a", rng.normal(size=(5, 4))),
                         ("b", rng.normal(size=(5, 4)))],
                 rank=2, epochs=2, n_neighbors=3)
    monkeypatch.undo()
    assert len(seen) == 2
    assert max(seen) <= MAX_NODES_METRIC_EPOCH
