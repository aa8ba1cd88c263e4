"""The three measured sections: CLI pipeline, merge serving, bundle I/O.

Each section is a stream of units (one CLI step, one serve round, one
bundle-io iteration, one set-up repetition). ``interleave`` runs the units
of all three sections in turn, so each section's samples spread over the
whole run instead of one stretch of it, and takes the calibration probes
before every unit (see ``spans.Tracer``). Sections keep their measured
windows whole, so the caller can read each one raw or calibrated.

Every section calls the package only through public functions looked up on
their modules at call time, so the span shims in ``spans.py`` see the
calls. Each unit times its own work, then checks its outputs outside the
measured window. A check that does not hold, or a call that raises, counts
as one failed operation; the run goes on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from taskswitch import cli, container, harness, merging, model, training
from taskswitch.bitwidth import QuantSpec
from taskswitch.model import MlpSpec
from taskswitch.vectors import ParamSet, diff

from spans import COMPUTE, DISPATCH, SAMPLED

TASKS = 3
DESK = MlpSpec()                               # 16,32,4: 4 small modules
WIDE = MlpSpec(widths=(16, 1024, 1024, 4))     # largest module 2**20
WIDTHS = (1, 2, 4, 8)


@dataclass(frozen=True)
class Sizes:
    """Work per run. Counts are what a section does when it is not the
    workload's focus; the focus section keeps going for ``--seconds``."""

    walkthroughs_focus: int = 2
    gen_reps: int = 5
    load_reps: int = 20
    synth_reps: int = 5
    serve_rounds: int = 400
    rows_per_round: int = 20           # single-row requests per batch
    batch_rows: int = 512
    check_rows: int = 4                # batch rows re-run singly per batch
    desk_tasks: int = 64
    wide_tasks: int = 4
    wide: MlpSpec = WIDE
    io_iterations: int = 16


FULL = Sizes()
SMOKE = Sizes(walkthroughs_focus=1, gen_reps=1, load_reps=2, synth_reps=1,
              serve_rounds=3, rows_per_round=3, batch_rows=64, check_rows=2,
              desk_tasks=4, wide_tasks=2, wide=MlpSpec(widths=(16, 64, 64, 4)),
              io_iterations=1)


@dataclass
class Ops:
    """Operations attempted and failed, with a note for each failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception counts it failed, yields None."""
        try:
            return fn(*args)
        except Exception as exc:   # a failing call is a result to count
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _rng(seed: int, section: int) -> np.random.Generator:
    return np.random.default_rng([seed, section])


def _spaced(total: int, extra: int) -> set[int]:
    """Positions among ``total`` units after which to run ``extra`` more."""
    return {round((i + 1) * total / (extra + 1)) for i in range(extra)}


class Section:
    """A stream of units with a plan: ``minimum`` units and, when the
    section is the workload's focus, ``budget`` measured seconds."""

    def __init__(self, minimum: int, budget: float, tracer, ops: Ops):
        self.minimum = max(minimum, 1)
        self.budget = budget
        self.tracer = tracer
        self.ops = ops
        self.units_done = 0
        self.measured = 0.0

    def ready(self) -> bool:
        return True

    def progress(self) -> float:
        share = self.units_done / self.minimum
        if self.budget > 0:
            share = min(share, self.measured / self.budget)
        return share

    def timed(self, section: str, calibration: str = SAMPLED):
        return _Timed(self, section, calibration)

    def units(self):
        raise NotImplementedError


class _Timed:
    """A measured window whose time also counts toward the section."""

    def __init__(self, owner: Section, name: str, calibration: str):
        self.owner = owner
        self.win = owner.tracer.window(name, calibration)

    def __enter__(self):
        self.win.__enter__()
        return self.win

    def __exit__(self, *exc):
        self.win.__exit__(*exc)
        self.owner.measured += self.win.seconds
        return False


def interleave(sections: list[Section], tracer) -> None:
    """Run one unit at a time from the ready section furthest behind its
    plan until every section's stream ends, with a calibration probe
    before each unit."""
    streams = {s: s.units() for s in sections}
    while streams:
        ready = [s for s in streams if s.ready()]
        if not ready:
            raise RuntimeError("no section can proceed")
        s = min(ready, key=Section.progress)
        tracer.calibrate()
        try:
            next(streams[s])
            s.units_done += 1
        except StopIteration:
            del streams[s]


# --- pipeline: the README walkthrough through taskswitch.cli.main ----------

def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def walkthrough_steps(data: Path, w: Path) -> list[list[str]]:
    """gen-tasks aside, the README walkthrough with its default --seed."""
    pairs = [f"task{k}={data}/task{k}_train.csv" for k in range(TASKS)]
    tests = [f"task{k}={data}/task{k}_test.csv" for k in range(TASKS)]
    steps = [["fine-tune", "--train", f"{data}/base_train.csv",
              "--test", f"{data}/base_test.csv", "--name", "base",
              "-o", f"{w}/base.tswp"]]
    for k in range(TASKS):
        steps.append(["fine-tune", "--train", f"{data}/task{k}_train.csv",
                      "--test", f"{data}/task{k}_test.csv",
                      "--init", f"{w}/base.tswp", "--name", f"task{k}",
                      "-o", f"{w}/ft{k}.tswp"])
        steps.append(["compress", "--base", f"{w}/base.tswp",
                      "--finetuned", f"{w}/ft{k}.tswp",
                      "--exemplars", f"{data}/task{k}_train.csv",
                      "--log", f"{w}/hist{k}.csv", "-o", f"{w}/task{k}.tswc"])
    steps.append(["build-index", "--base", f"{w}/base.tswp"]
                 + [a for p in pairs for a in ("--task", p)]
                 + ["-o", f"{w}/refs.idx"])
    steps.append(["train-metric", "--index", f"{w}/refs.idx",
                  "--base", f"{w}/base.tswp"]
                 + [a for p in pairs for a in ("--task", p)]
                 + ["--log", f"{w}/mloss.csv", "-o", f"{w}/trained.idx"])
    steps.append(["merge-eval", "--base", f"{w}/base.tswp",
                  "--index", f"{w}/trained.idx"]
                 + [a for k in range(TASKS)
                    for a in ("--bundle", f"{w}/task{k}.tswc")]
                 + [a for p in tests for a in ("--task", p)]
                 + ["-o", f"{w}/merged.csv"])
    return steps


STEPS = len(walkthrough_steps(Path("data"), Path("w")))


class Pipeline(Section):
    """The README walkthrough as written: gen-tasks (the set-up), then
    fine-tune base + 3, compress x3, build-index, train-metric and
    merge-eval, each step one unit.

    Every step keeps the README's default --seed, gen-tasks included: the
    acceptance-08/09 bounds that ``_check`` applies are pinned at those
    task draws, and other draws miss them (see perfbench/README.md), so
    the benchmark seed does not reach this section."""

    def __init__(self, work: Path, walkthroughs: int, gen_reps: int,
                 budget: float, tracer, ops: Ops):
        super().__init__(gen_reps + STEPS * walkthroughs, budget, tracer, ops)
        self.work = work
        self.walkthroughs, self.gen_reps = walkthroughs, gen_reps
        self.data = work / "data"
        self.artifacts: Path | None = None   # a finished walkthrough's dir
        # measured windows, kept whole so they can be calibrated at the end
        self.gens: list = []
        self.walks: list[list] = []        # the step windows of each
        self.compress: list = []
        self.size_ratio: list[float] = []
        self.merged_acc: list[float] = []

    def _gen(self, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)
        with self.timed("pipeline-setup") as win:
            rc = _cli(["gen-tasks", "--out", str(out)])
        self.gens.append(win)
        self.ops.record(rc == 0, f"gen-tasks exit {rc}")

    def units(self):
        self._gen(self.data)
        yield
        extra = _spaced(STEPS * self.walkthroughs, self.gen_reps - 1)
        done = 0
        n = 0
        while n < self.walkthroughs or self.measured < self.budget:
            w = self.work / f"walk{n}"
            w.mkdir(parents=True)
            walk = []
            steps = walkthrough_steps(self.data, w)
            for i, argv in enumerate(steps, 1):
                with self.timed("pipeline") as win:
                    rc = _cli(argv)
                walk.append(win)
                if argv[0] == "compress":
                    self.compress.append(win)
                self.ops.record(rc == 0, f"{argv[0]} exit {rc}")
                if i == len(steps):
                    # checked before yielding, so serving can start at once
                    self.walks.append(walk)
                    self._check(w)
                    self.artifacts = w
                yield
                done += 1
                if done in extra:
                    self._gen(self.work / "gen-rep")
                    yield
            n += 1

    def _check(self, w: Path) -> None:
        """The acceptance-08/09 bounds on the walkthrough's outputs."""
        data, ops = self.data, self.ops
        spec, base, _ = container.load_params(w / "base.tswp")
        gaps, nnz, size, bits = [], 0, 0, 0
        dense_tvs, tests = [], []
        for k in range(TASKS):
            x, y = harness.read_dataset(data / f"task{k}_test.csv")
            tests.append((x, y))
            _, tuned, _ = container.load_params(w / f"ft{k}.tswp")
            dense_tvs.append(diff(tuned, base, f"task{k}"))
            decoded, meta = container.load_container(w / f"task{k}.tswc")
            for task_id, mods in decoded:
                bits += sum(dm.bits_consumed for dm in mods)
                sv = container.sparse_from_decoded(task_id, mods,
                                                   meta["module_names"])
                nnz += sv.total_nnz()
                size += sv.total_size()
                merged = merging.materialize(base, [sv], np.ones(1))
                gaps.append(model.accuracy(spec, tuned, x, y)
                            - model.accuracy(spec, merged, x, y))
        sparsity = 1.0 - nnz / size
        ops.record(sparsity >= 0.90 and bits * 10 <= 32 * size
                   and max(gaps) <= 0.02,
                   f"compression bounds: sparsity {sparsity:.4f}, "
                   f"encoded/dense {bits / (32 * size):.4f}, "
                   f"max gap {max(gaps):.4f}")
        with open(w / "merged.csv", newline="") as fh:
            acc = {r["task"]: float(r["accuracy"]) for r in csv.DictReader(fh)}
        statics = [float(np.mean([
            model.accuracy(spec, harness.baseline_merge(base, dense_tvs,
                                                        mode=mode), x, y)
            for x, y in tests])) for mode in ("weight-average",
                                              "task-arithmetic")]
        ops.record(acc["average"] > max(statics),
                   f"merge {acc['average']:.4f} vs static {statics}")
        self.size_ratio.append(bits / (32 * size))
        self.merged_acc.append(acc["average"])


# --- serve: a closed loop with one client over merged_forward --------------

@dataclass
class Artifacts:
    spec: MlpSpec
    base: ParamSet
    index: merging.ReferenceIndex
    vectors: list


def cold_load(w: Path) -> Artifacts:
    spec, base, _ = container.load_params(w / "base.tswp")
    index = merging.load_index(w / "trained.idx")
    vectors = []
    for k in range(TASKS):
        vectors.extend(container.load_bundle(w / f"task{k}.tswc")[0])
    return Artifacts(spec, base, index, vectors)


@dataclass
class Pool:
    """In-task test rows of every task, with labels and task ordinals."""

    x: np.ndarray
    y: np.ndarray
    task: np.ndarray


def read_pool(data: Path) -> Pool:
    parts = [harness.read_dataset(data / f"task{k}_test.csv")
             for k in range(TASKS)]
    return Pool(np.vstack([x for x, _ in parts]),
                np.concatenate([y for _, y in parts]),
                np.concatenate([np.full(len(y), k)
                                for k, (_, y) in enumerate(parts)]))


class Serve(Section):
    """One client, closed loop: each round is one batch and
    ``rows_per_round`` single-row requests in a seeded order.

    Batches are half in-task test rows and half boundary rows, convex mixes
    (lambda in [0.3, 0.7]) of two rows from different tasks; boundary rows
    raise the number of distinct weight rows the merge must materialize.
    The set-up is the cold load of the walkthrough's base, index and
    bundles, repeated ``load_reps`` times across the run.

    Its windows last 0.3-10 ms, so they are calibrated by the probes
    between units, not sampled: a sampling signal inside a single-row
    request would move the latency percentiles. Batches are scaled by the
    compute probe, single rows and cold loads by the dispatch probe.
    """

    def __init__(self, pipeline: Pipeline, seed: int, sizes: Sizes,
                 load_reps: int, budget: float, tracer, ops: Ops):
        super().__init__(load_reps + sizes.serve_rounds, budget, tracer, ops)
        self.pipeline, self.sizes, self.load_reps = pipeline, sizes, load_reps
        self.rng = _rng(seed, 2)
        self.loads: list = []
        self.batches: list = []
        self.rows: list = []
        self.route_top1 = 0.0

    def ready(self) -> bool:
        return self.pipeline.artifacts is not None

    def _load(self, w: Path) -> Artifacts | None:
        with self.timed("serve-setup", DISPATCH) as win:
            art = self.ops.attempt("cold load", cold_load, w)
        self.loads.append(win)
        return art

    def _batch(self, pool: Pool, starts: np.ndarray):
        rng, half = self.rng, self.sizes.batch_rows // 2
        inside = rng.integers(0, len(pool.y), half)
        a = rng.integers(0, len(pool.y), self.sizes.batch_rows - half)
        other = (pool.task[a] + rng.integers(1, TASKS, a.size)) % TASKS
        b = starts[other] + rng.integers(0, np.diff(starts)[other])
        lam = rng.uniform(0.3, 0.7, a.size)[:, None]
        return np.vstack([pool.x[inside],
                          lam * pool.x[a] + (1.0 - lam) * pool.x[b]]), inside

    def units(self):
        w = self.pipeline.artifacts
        art = self._load(w)
        yield
        if art is None:
            return
        pool = read_pool(self.pipeline.data)
        starts = np.searchsorted(pool.task, np.arange(TASKS + 1))
        ft_correct = np.zeros(len(pool.y), dtype=bool)
        for k in range(TASKS):
            _, tuned, _ = container.load_params(w / f"ft{k}.tswp")
            rows = pool.task == k
            ft_correct[rows] = model.predict(art.spec, tuned,
                                             pool.x[rows]) == pool.y[rows]
        # a few untimed requests first, so no sample pays first-call costs
        for i in range(3):
            merging.merged_forward(art.spec, art.base, art.vectors,
                                   art.index, pool.x[i:i + 1])
        extra = _spaced(self.sizes.serve_rounds, self.load_reps - 1)
        served, served_rows, top1 = [], [], []
        slots = ["row"] * self.sizes.rows_per_round + ["batch"]
        rounds = 0
        while (rounds < self.sizes.serve_rounds
               or self.measured < self.budget):
            for kind in self.rng.permutation(slots):
                if kind == "batch":
                    x, inside = self._batch(pool, starts)
                else:
                    inside = self.rng.integers(0, len(pool.y), 1)
                    x = pool.x[inside]
                with self.timed("serve", COMPUTE if kind == "batch"
                                else DISPATCH) as win:
                    preds, wts = self.ops.attempt(
                        "merged_forward", merging.merged_forward,
                        art.spec, art.base, art.vectors, art.index,
                        x) or (None, None)
                if preds is None:
                    continue
                (self.batches if kind == "batch" else self.rows).append(win)
                self.ops.record(self._agrees(art, x, len(inside), preds, wts),
                                f"{len(x)}-row request: weight rows or "
                                "batch and single-row answers disagree")
                n_in = len(inside)
                served.append(preds[:n_in] == pool.y[inside])
                served_rows.append(inside)
                top1.append(np.argmax(wts[:n_in], axis=1)
                            == pool.task[inside])
            rounds += 1
            yield
            if rounds in extra:
                self._load(w)
                yield
        acc = float(np.mean(np.concatenate(served)))
        ft_acc = float(np.mean(ft_correct[np.concatenate(served_rows)]))
        self.ops.record(acc >= ft_acc - 0.03,
                        f"in-task accuracy {acc:.4f} vs fine-tuned "
                        f"{ft_acc:.4f}")
        self.route_top1 = float(np.mean(np.concatenate(top1)))

    def _agrees(self, art, x, n_in, preds, wts) -> bool:
        """Weight rows sum to 1.0; sampled batch rows, in-task and
        boundary alike, get the same answer when sent alone."""
        if not np.all(wts.sum(axis=1) == 1.0):
            return False
        if len(x) == 1:
            return True
        half = self.sizes.check_rows // 2
        picks = np.concatenate([
            self.rng.choice(n_in, half, replace=False),
            n_in + self.rng.choice(len(x) - n_in, half, replace=False)])
        return all(merging.merged_forward(art.spec, art.base, art.vectors,
                                          art.index, x[i:i + 1])[0][0]
                   == preds[i] for i in picks)


# --- bundle-io: codec and container writes beside reads ---------------------

@dataclass
class Synthetic:
    """Seeded compressed task vectors and a dense wide base, with the
    values every decode must reproduce bit for bit."""

    desk: list
    wide: list
    wide_spec: MlpSpec
    wide_base: ParamSet
    expected: dict            # task id -> [(support, values)] per module
    expected_base: list       # float32-rounded base modules


def _module(rng, n: int, sparsity: float, width: int):
    nnz = int(round(n * (1.0 - sparsity)))
    support = np.sort(rng.choice(n, nnz, replace=False)).astype(np.int64)
    while True:
        range_neg, range_pos = (float(np.float32(v))
                                for v in rng.uniform(0.01, 0.2, 2))
        if not np.any(QuantSpec(width, range_neg, range_pos).centers() == 0):
            break
    return training.CompressedModule(
        length=n, support=support,
        bins=rng.integers(0, 1 << width, nnz).astype(np.int64),
        bit_width=width, range_neg=range_neg, range_pos=range_pos,
        scale=float(np.float32(rng.uniform(0.5, 2.0))))


def synthesize(seed: int, sizes: Sizes) -> Synthetic:
    """Desk-shape vectors with random sparsity in [0.90, 0.97] and width per
    module, and wide-shape vectors whose largest module takes one
    (width, sparsity) pair per task from a fixed schedule, so the encoded
    size hardly depends on the seed."""
    rng = _rng(seed, 3)
    desk = []
    for t in range(sizes.desk_tasks):
        desk.append(training.CompressedTaskVector(f"desk{t}", [
            (name, _module(rng, int(np.prod(shape)),
                           rng.uniform(0.90, 0.97), int(rng.choice(WIDTHS))))
            for name, shape in DESK.module_shapes()]))
    wide = []
    shapes = sizes.wide.module_shapes()
    largest = max(range(len(shapes)), key=lambda i: np.prod(shapes[i][1]))
    schedule = list(zip(WIDTHS, (0.97, 0.95, 0.93, 0.90)))
    for t in range(sizes.wide_tasks):
        mods = []
        for i, (name, shape) in enumerate(shapes):
            if i == largest:
                width, sparsity = schedule[t % len(schedule)]
            else:
                width = int(rng.choice(WIDTHS))
                sparsity = rng.uniform(0.90, 0.97)
            mods.append((name, _module(rng, int(np.prod(shape)), sparsity,
                                       width)))
        wide.append(training.CompressedTaskVector(f"wide{t}", mods))
    wide_base = ParamSet([(name, rng.normal(0.0, 0.05, int(np.prod(shape))))
                          for name, shape in shapes])
    expected = {ctv.task_id: [(m.support, m.final_values()[m.support])
                              for _, m in ctv.modules]
                for ctv in desk + wide}
    expected_base = [v.astype(np.float32).astype(np.float64)
                     for _, v in wide_base.modules]
    return Synthetic(desk, wide, sizes.wide, wide_base, expected,
                     expected_base)


def _bundle_matches(svs, synth: Synthetic, count: int) -> bool:
    if len(svs) != count:
        return False
    for sv in svs:
        want = synth.expected.get(sv.task_id)
        if want is None or len(want) != len(sv.modules):
            return False
        for (_, mod), (support, values) in zip(sv.modules, want):
            if not (np.array_equal(mod.support, support)
                    and mod.values.tobytes() == values.tobytes()):
                return False
    return True


class BundleIo(Section):
    """Each iteration: to_streams and save_bundle for the desk and wide
    bundles and save_params for the wide base (timed together as one
    write), then load_bundle twice and load_params (one load), each decode
    checked against the generator. The set-up is vector synthesis."""

    def __init__(self, work: Path, seed: int, sizes: Sizes, synth_reps: int,
                 budget: float, tracer, ops: Ops, corrupt: bool = False):
        super().__init__(synth_reps + sizes.io_iterations, budget, tracer,
                         ops)
        self.work, self.seed, self.sizes = work, seed, sizes
        self.synth_reps, self.corrupt = synth_reps, corrupt
        self.synths: list = []
        self.writes: list = []
        self.reads: list = []
        self.bundle_bytes: list[int] = []

    def _synthesize(self) -> Synthetic:
        with self.timed("bundle-io-setup") as win:
            synth = synthesize(self.seed, self.sizes)
        self.synths.append(win)
        return synth

    def units(self):
        synth = self._synthesize()
        yield
        self.work.mkdir(parents=True, exist_ok=True)
        paths = {"desk": self.work / "desk.tswc",
                 "wide": self.work / "wide.tswc"}
        base_path = self.work / "wide.tswp"
        groups = {"desk": synth.desk, "wide": synth.wide}
        names = {"desk": DESK.module_names(),
                 "wide": synth.wide_spec.module_names()}

        def write(key):
            container.save_bundle(paths[key], [(c.task_id, c.to_streams())
                                               for c in groups[key]],
                                  names[key])
            return True

        def write_base():
            container.save_params(base_path, synth.wide_spec,
                                  synth.wide_base, name="wide-base")
            return True

        extra = _spaced(self.sizes.io_iterations, self.synth_reps - 1)
        ops = self.ops
        while (len(self.writes) < self.sizes.io_iterations
               or self.measured < self.budget):
            with self.timed("bundle-io") as win:
                written = {key: ops.attempt(f"write {key}", write, key)
                           for key in groups}
                written["base"] = ops.attempt("write base", write_base)
            self.writes.append(win)
            with self.timed("bundle-io") as win:
                loaded = {key: ops.attempt(f"load {key}",
                                           container.load_bundle, paths[key])
                          for key in groups}
                loaded["base"] = ops.attempt("load base",
                                             container.load_params, base_path)
            self.reads.append(win)
            self.bundle_bytes.append(sum(p.stat().st_size
                                         for p in paths.values()
                                         if p.exists()))
            for key, ok in written.items():
                if ok:
                    ops.record(True, f"write {key}")
            for key in groups:
                if loaded[key] is not None:
                    ops.record(_bundle_matches(loaded[key][0], synth,
                                               len(groups[key])),
                               f"load {key}: decoded modules differ")
            if loaded["base"] is not None:
                params = loaded["base"][1]
                ops.record(len(params.modules) == len(synth.expected_base)
                           and all(v.tobytes() == e.tobytes() for (_, v), e
                                   in zip(params.modules,
                                          synth.expected_base)),
                           "load base: parameters differ")
            yield
            if len(self.writes) in extra:
                self._synthesize()
                yield
        if self.corrupt:
            # a bundle cut short mid-stream must fail this load, not the run
            data = paths["desk"].read_bytes()
            cut = self.work / "corrupt.tswc"
            cut.write_bytes(data[:len(data) // 2])
            loaded = ops.attempt("load corrupt", container.load_bundle, cut)
            if loaded is not None:
                ops.record(_bundle_matches(loaded[0], synth, len(synth.desk)),
                           "load corrupt: decoded modules differ")
