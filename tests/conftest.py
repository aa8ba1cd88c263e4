"""Shared fixtures: the full desk-scale pipeline, built once per session.

The pipeline fixture runs the whole workflow end to end on the default
synthetic spec: pretrain a shared base, fine-tune one model per task,
compress every task vector, round-trip the compressed vectors through the
binary container, build the reference index, and train the query metric.
Wall times of the expensive phases are recorded so the timed checks in the
acceptance suite can assert against the same run they inspect.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from taskswitch import (
    CompressedTaskVector,
    MlpSpec,
    ParamSet,
    SyntheticTaskSpec,
    TaskData,
    TaskVector,
    TrainConfig,
    accuracy,
    base_dataset,
    baseline_merge,
    build_index,
    diff,
    features,
    fine_tune,
    gen_tasks,
    init_params,
    load_bundle,
    materialize,
    save_bundle,
    train,
    train_metric,
)
from taskswitch.merging import MetricTrainResult, ReferenceIndex
from taskswitch.training import TrainResult

# One fixed recipe for the whole suite. Accuracy gaps are deterministic
# for a given seed, so the checks pin these values rather than sweeping.
EXEMPLARS_PER_TASK = 100
FT_STEPS = 800
FT_LR = 0.1
BASE_SEED = 1
TASK_SEED = 0


def evaluate_tasks(spec: MlpSpec, params: ParamSet,
                   tasks: list[TaskData]) -> list[float]:
    """Test accuracy of one parameter set on every task."""
    return [accuracy(spec, params, t.test_x, t.test_y) for t in tasks]


@dataclass
class Pipeline:
    hspec: SyntheticTaskSpec
    mspec: MlpSpec
    tasks: list[TaskData]
    base: ParamSet
    finetuned: list[ParamSet]
    vectors: list[TaskVector]
    results: list[TrainResult]
    bundle_path: str
    sparse: list[CompressedTaskVector]
    bundle_meta: dict
    index: ReferenceIndex
    metric: MetricTrainResult
    ft_accs: list[float]
    comp_accs: list[float]
    merged_accs: list[float]
    wa_accs: list[float]
    ta_accs: list[float]
    times: dict = field(default_factory=dict)

    def exemplars(self, k: int) -> np.ndarray:
        return self.tasks[k].train_x[:EXEMPLARS_PER_TASK]


def _build_pipeline(tmp_dir) -> Pipeline:
    from taskswitch import merged_forward

    hspec = SyntheticTaskSpec()
    mspec = MlpSpec()
    tasks = gen_tasks(hspec)
    btx, bty, _, _ = base_dataset(hspec)

    t0 = time.monotonic()
    base = fine_tune(mspec, init_params(mspec, seed=0), btx, bty,
                     steps=FT_STEPS, lr=FT_LR, optimizer="sgd",
                     seed=BASE_SEED)
    finetuned = [fine_tune(mspec, base, t.train_x, t.train_y,
                           steps=FT_STEPS, lr=FT_LR, optimizer="sgd",
                           seed=TASK_SEED)
                 for t in tasks]
    t_finetune = time.monotonic() - t0
    vectors = [diff(ft, base, t.task_id)
               for ft, t in zip(finetuned, tasks)]

    t0 = time.monotonic()
    cfg = TrainConfig(loss_kind="kl", preserve_weight=0.3, seed=0)
    results = [train(tv, base, ft, t.train_x[:EXEMPLARS_PER_TASK], mspec, cfg)
               for tv, ft, t in zip(vectors, finetuned, tasks)]
    t_compress = time.monotonic() - t0

    bundle_path = str(tmp_dir / "compressed.tsw")
    entries = [(r.compressed.task_id, r.compressed.to_streams())
               for r in results]
    save_bundle(bundle_path, entries, results[0].compressed.names)
    sparse, meta = load_bundle(bundle_path)

    ft_accs = [accuracy(mspec, ft, t.test_x, t.test_y)
               for ft, t in zip(finetuned, tasks)]
    comp_accs = []
    for r, t in zip(results, tasks):
        merged = materialize(base, [r.compressed], [1.0])
        comp_accs.append(accuracy(mspec, merged, t.test_x, t.test_y))

    t0 = time.monotonic()
    exemplar_sets = [(t.task_id, t.train_x[:EXEMPLARS_PER_TASK])
                     for t in tasks]
    index = build_index(mspec, base, exemplar_sets,
                        centers_per_task=20, seed=0)
    task_feats = [(t.task_id,
                   features(mspec, base, t.train_x[:EXEMPLARS_PER_TASK]))
                  for t in tasks]
    metric = train_metric(index, task_feats, rank=32, epochs=100,
                          lr=0.5, n_neighbors=10, seed=0)
    merged_accs = []
    for t in tasks:
        preds, _ = merged_forward(mspec, base, sparse, metric.index,
                                  t.test_x, n_neighbors=10)
        merged_accs.append(float(np.mean(preds == t.test_y)))
    t_merge = time.monotonic() - t0

    wa = baseline_merge(base, vectors, mode="weight-average")
    ta = baseline_merge(base, vectors, mode="task-arithmetic", scale=0.3)
    wa_accs = evaluate_tasks(mspec, wa, tasks)
    ta_accs = evaluate_tasks(mspec, ta, tasks)

    return Pipeline(
        hspec=hspec, mspec=mspec, tasks=tasks, base=base,
        finetuned=finetuned, vectors=vectors, results=results,
        bundle_path=bundle_path, sparse=sparse, bundle_meta=meta,
        index=index, metric=metric, ft_accs=ft_accs, comp_accs=comp_accs,
        merged_accs=merged_accs, wa_accs=wa_accs, ta_accs=ta_accs,
        times={"finetune": t_finetune, "compress": t_compress,
               "merge": t_merge},
    )


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory) -> Pipeline:
    return _build_pipeline(tmp_path_factory.mktemp("pipeline"))
