"""Command-line pipeline: data generation through dynamic merge evaluation.

Every subcommand is deterministic given --seed. A flat key=value file can
supply any option via --config, one file a run; explicit flags override
file entries.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import merging
from .codec import MAX_COUNT, Format, nominal_bits
from .container import (_module_names, load_bundle, load_container,
                        load_params, save_bundle, save_params)
from .harness import (SyntheticTaskSpec, base_dataset, baseline_merge,
                      fine_tune, gen_tasks, probe_precision, probe_scale,
                      probe_sparsity, read_dataset, read_text, write_dataset,
                      write_tasks)
# named apply_compressed because perfbench/spans.py traces cli.apply_compressed
from .merging import materialize as apply_compressed
from .model import MlpSpec, accuracy, features, forward, init_params
from .switch import build_switch
from .training import TrainConfig, TrainingDivergedError, train
from .vectors import StructureError, check_aligned, diff, refused_at


def _widths(text: str) -> tuple:
    try:
        widths = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad widths {text!r}")
    if len(widths) < 2:
        raise argparse.ArgumentTypeError("widths need at least input,output")
    if min(widths) < 1:
        raise argparse.ArgumentTypeError(
            f"entries must be at least 1, got {text!r}")
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        if fan_in * fan_out >= MAX_COUNT:
            raise argparse.ArgumentTypeError(
                f"layer {i} would have {fan_in * fan_out} weights, a stored "
                f"module holds at most {MAX_COUNT - 1}")
    return widths


def _number(parse, valid, rule: str):
    """An argparse type: text that parse reads and valid accepts."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad number {text!r}")
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return convert


_count = _number(int, lambda v: v >= 1, "at least 1")
_seed = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive = _number(float, lambda v: math.isfinite(v) and v > 0.0,
                    "positive and finite")
_finite = _number(float, math.isfinite, "finite")
_fraction = _number(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _named(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected NAME=PATH, got {text!r}")
    name, path = text.split("=", 1)
    return name, path


class _AppendNamed(argparse.Action):
    """Collects NAME=PATH pairs in order, refusing a name given twice."""

    def __call__(self, parser, namespace, value, option_string=None):
        pairs = getattr(namespace, self.dest) or []
        if any(name == value[0] for name, _ in pairs):
            raise argparse.ArgumentError(self, f"name {value[0]!r} given "
                                         "twice")
        setattr(namespace, self.dest, pairs + [value])


def _load_config_tokens(path) -> list[str]:
    """Every key=value line becomes the tokens --key value."""
    tokens = []
    for raw in read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: bad config line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        tokens.extend(["--" + key.replace("_", "-"), value])
    return tokens


class _SpliceConfig(Exception):
    """Raised at the first --config of a parse, carrying its file."""


_SPLICED = object()    # --config's value while its file's entries parse


class _ConfigFile(argparse.Action):
    """--config FILE in every form argparse takes (--config=FILE, an
    abbreviation). The first one met stops the parse, and _Parser parses
    again with the file's entries in front of the flags, so that explicit
    flags override them; there it is recorded, and a second one refused."""

    def __call__(self, parser, namespace, path, option_string=None):
        if path is None:
            raise ValueError("--config needs a file")
        seen = getattr(namespace, self.dest)
        if seen is None:
            raise _SpliceConfig(path)
        if seen is not _SPLICED:
            raise ValueError("--config given twice")
        setattr(namespace, self.dest, path)


def _resolve_model(args):
    """Initial parameters from --init; a container also fixes the shape,
    so --widths and --activation are refused with it."""
    shape = {key: value for key, value in vars(args).items()
             if key in ("widths", "activation") and value is not None}
    if args.init != "random":
        if shape:
            raise ValueError(f"{' and '.join('--' + k for k in shape)} "
                             f"cannot be used with --init {args.init}: the "
                             "container fixes the model's shape")
        spec, params, _ = load_params(args.init)
        return spec, params
    spec = MlpSpec(**shape)
    return spec, init_params(spec, seed=args.seed)


def _read_inputs(spec, path):
    """A CSV's features and labels, with rows the model can take."""
    x, y = read_dataset(path)
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"{path}: {x.shape[1]} features per row, the "
                         f"model's input width is {spec.input_dim}")
    if not y.size:
        raise ValueError(f"{path}: no data rows")
    return x, y


def _load_finetuned(base_spec, path):
    spec, params, name = load_params(path)
    if spec.to_dict() != base_spec.to_dict():
        raise StructureError(f"{path}: model shape differs from the base")
    return params, name


def _load_index(path, spec, neighbors):
    """The index at path, checked against the model and --neighbors."""
    index = merging.load_index(path)
    if index.feature_dim != spec.feature_dim:
        raise StructureError(f"{path}: features of width {index.feature_dim}"
                             f", the model's have {spec.feature_dim}")
    merging._check_neighbors(index, neighbors, "--neighbors")
    return index


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float literal as a value.

    argparse takes a token for an option unless it matches its negative
    number pattern, which has no exponent, so "--lambda -1e308" failed with
    "expected one argument" where "--lambda=-1e308" parsed. Subparsers are
    made of the same class, and a subcommand's parse that meets --config
    parses again with the file's entries first (see _ConfigFile).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except _SpliceConfig as splice:
            return super().parse_known_args(
                _load_config_tokens(splice.args[0]) + list(args),
                argparse.Namespace(config=_SPLICED))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taskswitch",
        description="Compress task vectors and merge them dynamically.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tasks", help="write the synthetic benchmark CSVs")
    p.add_argument("--out", required=True)
    p.add_argument("--tasks", type=_count, default=3)
    p.add_argument("--dim", type=_count, default=16)
    p.add_argument("--classes", type=_count, default=4)
    p.add_argument("--train-size", type=_count, default=2000)
    p.add_argument("--test-size", type=_count, default=500)
    p.add_argument("--task-separation", type=float, default=8.0)
    p.add_argument("--class-separation", type=float, default=5.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--min-task-gap", type=float, default=6.0)

    p = sub.add_parser("fine-tune", help="train a model on one CSV dataset")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--init", default="random",
                   help="'random' or a saved model container")
    p.add_argument("--widths", type=_widths,
                   help="comma-separated layer widths of a random --init "
                   "(default 16,32,4)")
    p.add_argument("--activation", choices=("tanh", "relu"),
                   help="hidden activation of a random --init (default "
                   "tanh)")
    p.add_argument("--steps", type=_count, default=800)
    p.add_argument("--lr", type=_positive, default=0.1)
    p.add_argument("--batch-size", type=_count, default=32)
    p.add_argument("--optimizer", choices=("sgd", "adam"), default="sgd")
    p.add_argument("--name", default="model",
                   help="task id stored with the parameters")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("tswitch", help="binary switch compression per task")
    p.add_argument("--base", required=True)
    p.add_argument("--finetuned", type=_named, action=_AppendNamed,
                   required=True, metavar="NAME=PATH")
    p.add_argument("--alpha", type=_fraction, default=0.9)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("compress", help="learn gates and bit-widths per task")
    p.add_argument("--base", required=True)
    p.add_argument("--finetuned", required=True)
    p.add_argument("--task", help="task id (default: name saved in the model)")
    p.add_argument("--exemplars", required=True,
                   help="CSV whose inputs drive the preservation loss")
    p.add_argument("--ppl", choices=("kl", "mse", "cka"), default="kl")
    p.add_argument("--lambda", dest="lam", type=_finite, default=None,
                   help="preservation weight (default: per-loss preset)")
    p.add_argument("--steps", type=_count, default=500)
    p.add_argument("--batch-size", type=_count, default=32)
    p.add_argument("--exemplar-count", type=_count, default=100)
    p.add_argument("--softmax-temp", type=_positive, default=4.0)
    p.add_argument("--log", help="write per-step history CSV here")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("inspect", help="list the modules of a bundle")
    p.add_argument("bundle")
    p.add_argument("--csv", help="also write the table as CSV")

    p = sub.add_parser("probe", help="sensitivity probes on one task vector")
    p.add_argument("kind", choices=("sparsity", "precision", "scale"))
    p.add_argument("--base", required=True)
    p.add_argument("--finetuned", required=True)
    p.add_argument("--data", required=True, help="evaluation CSV")
    p.add_argument("--level", choices=("module", "layer"), default="module")
    p.add_argument("--alpha", type=_fraction, default=0.9,
                   help="pruning ratio for the sparsity probe")
    p.add_argument("-o", "--out", help="write the report CSV here")

    p = sub.add_parser("build-index", help="cluster exemplar features")
    p.add_argument("--base", required=True)
    p.add_argument("--task", type=_named, action=_AppendNamed, required=True,
                   metavar="NAME=TRAIN_CSV")
    p.add_argument("--exemplar-count", type=_count, default=100)
    p.add_argument("--centers", type=int, default=20,
                   help="k-means centers per task; 0 keeps every feature")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("train-metric", help="learn the retrieval projection")
    p.add_argument("--index", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--task", type=_named, action=_AppendNamed, required=True,
                   metavar="NAME=TRAIN_CSV")
    p.add_argument("--exemplar-count", type=_count, default=100)
    p.add_argument("--rank", type=_count, default=32)
    p.add_argument("--epochs", type=_count, default=100)
    p.add_argument("--lr", type=_positive, default=0.5)
    p.add_argument("--neighbors", type=int, default=10)
    p.add_argument("--log", help="write per-epoch loss CSV here")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("merge-eval", help="dynamic per-input merged accuracy")
    p.add_argument("--base", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--bundle", action="append", required=True)
    p.add_argument("--task", type=_named, action=_AppendNamed, required=True,
                   metavar="NAME=TEST_CSV")
    p.add_argument("--neighbors", type=int, default=10)
    p.add_argument("-o", "--out", help="write per-task accuracy CSV here")

    p = sub.add_parser("baseline", help="static merges for comparison")
    p.add_argument("--base", required=True)
    p.add_argument("--finetuned", type=_named, action=_AppendNamed,
                   required=True, metavar="NAME=PATH")
    p.add_argument("--mode", choices=("weight-average", "task-arithmetic"),
                   default="weight-average")
    p.add_argument("--scale", type=_finite, default=0.3,
                   help="task-arithmetic coefficient")
    p.add_argument("--task", type=_named, action=_AppendNamed, required=True,
                   metavar="NAME=TEST_CSV")
    p.add_argument("-o", "--out", help="write per-task accuracy CSV here")

    for name, sp in sub.choices.items():
        sp.add_argument("--config", action=_ConfigFile, nargs="?",
                        metavar="FILE", help="key=value defaults file")
        sp.add_argument("--seed", type=_seed, default=0)
    return parser


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_gen_tasks(args) -> int:
    spec = SyntheticTaskSpec(
        num_tasks=args.tasks, input_dim=args.dim,
        classes_per_task=args.classes, train_size=args.train_size,
        test_size=args.test_size, task_separation=args.task_separation,
        class_separation=args.class_separation, noise=args.noise,
        min_task_gap=args.min_task_gap, seed=args.seed)
    tasks = gen_tasks(spec)
    written = write_tasks(args.out, tasks)
    bx, by, btx, bty = base_dataset(spec)
    out = Path(args.out)
    for name, x, y in (("base_train.csv", bx, by), ("base_test.csv", btx, bty)):
        write_dataset(out / name, x, y)
        written.append(out / name)
    for p in written:
        print(p)
    return 0


def cmd_fine_tune(args) -> int:
    spec, params = _resolve_model(args)
    x, y = _read_inputs(spec, args.train)
    if y.max() >= spec.n_classes:
        raise ValueError(f"{args.train}: label {y.max()} is out of range for "
                         f"the model's {spec.n_classes} classes")
    if args.test:
        tx, ty = _read_inputs(spec, args.test)
    tuned = fine_tune(spec, params, x, y, steps=args.steps, lr=args.lr,
                      batch_size=args.batch_size, optimizer=args.optimizer,
                      seed=args.seed)
    save_params(args.out, spec, tuned, name=args.name)
    print(f"train accuracy {accuracy(spec, tuned, x, y):.4f}")
    if args.test:
        print(f"test accuracy {accuracy(spec, tuned, tx, ty):.4f}")
    print(args.out)
    return 0


def cmd_tswitch(args) -> int:
    spec, base, _ = load_params(args.base)
    entries = []
    for name, path in args.finetuned:
        tuned, _ = _load_finetuned(spec, path)
        sw = build_switch(diff(tuned, base, name), alpha=args.alpha)
        streams = sw.to_streams()
        bits = sum(e.file_bits for e in streams)
        nnz = sw.total_nnz()
        print(f"{name}: nnz {nnz} of {base.total_size()}, {bits} encoded bits")
        entries.append((name, streams))
    save_bundle(args.out, entries, base.names,
                {"kind": "tswitch", "alpha": args.alpha,
                 "model": spec.to_dict()})
    print(args.out)
    return 0


def cmd_compress(args) -> int:
    if args.ppl == "cka" and args.batch_size < 2:
        raise ValueError("--batch-size must be at least 2 for --ppl cka, "
                         f"got {args.batch_size}")
    spec, base, _ = load_params(args.base)
    tuned, stored_name = _load_finetuned(spec, args.finetuned)
    task_id = args.task or stored_name
    x, y = _read_inputs(spec, args.exemplars)
    config = TrainConfig(
        loss_kind=args.ppl, preserve_weight=args.lam,
        softmax_temp=args.softmax_temp, steps=args.steps,
        batch_size=args.batch_size, exemplar_count=args.exemplar_count,
        seed=args.seed)
    result = train(diff(tuned, base, task_id), base, tuned, x, spec, config)
    comp = result.compressed
    save_bundle(args.out, [(task_id, comp.to_streams())], base.names,
                {"kind": "compress", "loss": args.ppl, "lambda": config.lam,
                 "steps": args.steps, "seed": args.seed,
                 "model": spec.to_dict()})
    if args.log:
        hist = result.history
        _write_rows(args.log,
                    ["step", "rho", "omega", "sparsity", "bits",
                     "preserve", "total"],
                    [[h["step"], f"{h['rho']:.8g}", f"{h['omega']:.8g}",
                      f"{h['sparsity']:.8g}", f"{h['bits']:.8g}",
                      f"{h['preserve']:.8g}", f"{h['total']:.8g}"]
                     for h in hist])
    widths = ",".join(str(m.bit_width) for _, m in comp.modules)
    print(f"{task_id}: sparsity {comp.sparsity():.4f}, bit widths {widths}")
    merged = apply_compressed(base, [comp], [1.0])
    print(f"exemplar-set accuracy {accuracy(spec, merged, x, y):.4f} "
          f"(fine-tuned {accuracy(spec, tuned, x, y):.4f})")
    print(args.out)
    return 0


def cmd_inspect(args) -> int:
    tasks, metadata = load_container(args.bundle)
    rows = []
    for task_id, decs in tasks:
        names = _module_names(args.bundle, metadata, len(decs))
        for name, dec in zip(names, decs):
            h = dec.header
            rows.append([
                task_id, name, Format(h.fmt).name, h.count, dec.nnz,
                f"{1.0 - dec.nnz / h.count:.4f}", h.bit_width, h.group_size,
                f"{nominal_bits(h.fmt, dec.payload_bits):.0f}",
                dec.bits_consumed, dec.header_bits])
    header = ["task", "module", "format", "n", "nnz", "sparsity",
              "bits", "group", "nominal_bits", "file_bits", "header_bits"]
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    if args.csv:
        _write_rows(args.csv, header, rows)
    return 0


def cmd_probe(args) -> int:
    spec, base, _ = load_params(args.base)
    tuned, name = _load_finetuned(spec, args.finetuned)
    x, y = _read_inputs(spec, args.data)
    tv = diff(tuned, base, name)
    if args.kind == "scale":
        ref, rows, best = probe_scale(spec, base, tv, x, y)
        print(f"fine-tuned accuracy {ref:.4f}; best eta {best:.1f}")
        for r in rows:
            print(f"eta {r.eta:.1f}  accuracy {r.accuracy:.4f}  "
                  f"drop {r.drop:+.4f}")
        header, units = "eta", [f"{r.eta:.1f}" for r in rows]
    else:
        probe = probe_sparsity if args.kind == "sparsity" else probe_precision
        kwargs = {"alpha": args.alpha} if args.kind == "sparsity" else {}
        ref, rows = probe(spec, base, tv, x, y, level=args.level, **kwargs)
        print(f"fine-tuned accuracy {ref:.4f}")
        for r in rows:
            print(f"{r.unit}  accuracy {r.accuracy:.4f}  drop {r.drop:+.4f}")
        header, units = "unit", [r.unit for r in rows]
    if args.out:
        _write_rows(args.out, [header, "accuracy", "drop"],
                    [[u, f"{r.accuracy:.6f}", f"{r.drop:.6f}"]
                     for u, r in zip(units, rows)])
    return 0


def _index_inputs(args, spec):
    pairs = []
    for name, path in args.task:
        x, _ = _read_inputs(spec, path)
        pairs.append((name, x[:args.exemplar_count]))
    return pairs


def cmd_build_index(args) -> int:
    spec, base, _ = load_params(args.base)
    pairs = _index_inputs(args, spec)
    for (_, path), (_, x) in zip(args.task, pairs):
        if not 0 <= args.centers <= len(x):
            raise ValueError(f"--centers must be in [0, {len(x)}] for the "
                             f"rows read from {path}, got {args.centers}")
    centers = None if args.centers == 0 else args.centers
    index = merging.build_index(spec, base, pairs, centers_per_task=centers,
                                seed=args.seed)
    merging.save_index(args.out, index)
    print(f"{index.centers.shape[0]} references, dim {index.feature_dim}, "
          f"tasks {','.join(index.task_ids)}")
    print(args.out)
    return 0


def cmd_train_metric(args) -> int:
    spec, base, _ = load_params(args.base)
    index = _load_index(args.index, spec, args.neighbors)
    pairs = _index_inputs(args, spec)
    feats = [(name, features(spec, base, x)) for name, x in pairs]
    result = refused_at(f"--index {args.index}", merging.train_metric, index,
                        feats, rank=args.rank, epochs=args.epochs, lr=args.lr,
                        n_neighbors=args.neighbors, seed=args.seed)
    merging.save_index(args.out, result.index)
    print(f"loss {result.losses[0]:.6f} -> {result.losses[-1]:.6f} "
          f"over {len(result.losses)} epochs")
    if args.log:
        _write_rows(args.log, ["epoch", "loss"],
                    [[i, f"{v:.10g}"] for i, v in enumerate(result.losses)])
    print(args.out)
    return 0


def _accuracy_report(rows, out):
    for name, acc in rows:
        print(f"{name}  accuracy {acc:.4f}")
    avg = float(np.mean([a for _, a in rows]))
    print(f"average  {avg:.4f}")
    if out:
        _write_rows(out, ["task", "accuracy"],
                    [[n, f"{a:.6f}"] for n, a in rows]
                    + [["average", f"{avg:.6f}"]])


def cmd_merge_eval(args) -> int:
    spec, base, _ = load_params(args.base)
    index = _load_index(args.index, spec, args.neighbors)
    vectors = []
    for path in args.bundle:
        for sv in load_bundle(path)[0]:
            refused_at(f"{path}: bundle {sv.task_id!r} does not fit --base "
                       f"{args.base}", check_aligned, base, sv)
            vectors.append(sv)
    data = [_read_inputs(spec, path) for _, path in args.task]
    preds, _ = merging.merged_forward(spec, base, vectors, index,
                                      np.vstack([x for x, _ in data]),
                                      n_neighbors=args.neighbors)
    ends = np.cumsum([y.size for _, y in data])[:-1]
    rows = [(name, float(np.mean(p == y))) for (name, _), p, (_, y)
            in zip(args.task, np.split(preds, ends), data)]
    _accuracy_report(rows, args.out)
    return 0


# A huge --scale can overflow the merge or its forward; the logits are
# checked, and numpy's warnings on the way would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def cmd_baseline(args) -> int:
    spec, base, _ = load_params(args.base)
    tvs = []
    for name, path in args.finetuned:
        tuned, _ = _load_finetuned(spec, path)
        tvs.append(diff(tuned, base, name))
    merged = baseline_merge(base, tvs, mode=args.mode, scale=args.scale)
    rows = []
    for name, path in args.task:
        x, y = _read_inputs(spec, path)
        logits = forward(spec, merged, x)
        if not np.isfinite(logits).all():
            at = (f" at --scale {args.scale}"
                  if args.mode == "task-arithmetic" else "")
            raise ValueError(f"{path}: the {args.mode} merge gives "
                             f"non-finite logits{at}")
        rows.append((name, float(np.mean(logits.argmax(axis=1) == y))))
    _accuracy_report(rows, args.out)
    return 0


COMMANDS = {
    "gen-tasks": cmd_gen_tasks,
    "fine-tune": cmd_fine_tune,
    "tswitch": cmd_tswitch,
    "compress": cmd_compress,
    "inspect": cmd_inspect,
    "probe": cmd_probe,
    "build-index": cmd_build_index,
    "train-metric": cmd_train_metric,
    "merge-eval": cmd_merge_eval,
    "baseline": cmd_baseline,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except (OSError, ValueError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
