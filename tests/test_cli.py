"""Command-line tests: determinism, config handling, the full pipeline."""

import argparse
import csv
import filecmp
import struct
import tracemalloc

import numpy as np
import pytest

from taskswitch import (MlpSpec, TaskVector, build_switch, diff, init_params,
                        load_params, save_bundle)
from taskswitch.cli import COMMANDS, build_parser, main
from taskswitch.container import (load_container, save_container,
                                 streams_from_params)
from taskswitch.harness import (probe_precision, probe_scale, probe_sparsity,
                                read_dataset, write_dataset)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _gen(out, seed=0, extra=()):
    return main(["gen-tasks", "--out", str(out), "--tasks", "2",
                 "--dim", "6", "--classes", "3", "--train-size", "60",
                 "--test-size", "30", "--seed", str(seed), *extra])


class TestGenTasks:
    def test_same_seed_same_bytes(self, tmp_path):
        assert _gen(tmp_path / "a", seed=4) == 0
        assert _gen(tmp_path / "b", seed=4) == 0
        for name in ("task0_train.csv", "task0_test.csv", "task1_train.csv",
                     "task1_test.csv", "base_train.csv", "base_test.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_seed_changes_the_data(self, tmp_path):
        _gen(tmp_path / "a", seed=0)
        _gen(tmp_path / "b", seed=1)
        assert not filecmp.cmp(tmp_path / "a" / "task0_train.csv",
                               tmp_path / "b" / "task0_train.csv",
                               shallow=False)

    def test_lists_written_files(self, tmp_path, capsys):
        _gen(tmp_path / "a")
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 6

    def test_invalid_geometry_exits_2(self, tmp_path):
        assert main(["gen-tasks", "--out", str(tmp_path), "--dim", "2",
                     "--classes", "4"]) == 2

    def test_unplaceable_task_centers_exit_2(self, tmp_path, capsys):
        assert main(["gen-tasks", "--out", str(tmp_path / "d"),
                     "--tasks", "40", "--min-task-gap", "11"]) == 2
        assert capsys.readouterr().err == (
            "error: could not place --tasks 40 centers --min-task-gap 11.0 "
            "apart in 100 tries\n")
        assert not (tmp_path / "d").exists()

    def test_crowded_task_centers_are_checked_in_blocks(self, tmp_path,
                                                        capsys):
        # 2,000 centers on a circle cannot all be 6 apart; their whole
        # (K, K, d) difference tensor would take 64 MB
        tracemalloc.start()
        try:
            assert main(["gen-tasks", "--out", str(tmp_path / "d"),
                         "--tasks", "2000", "--dim", "2",
                         "--classes", "2"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "error: could not place --tasks 2000 centers --min-task-gap 6.0 "
            "apart in 100 tries\n")
        assert peak < 16e6
        assert not (tmp_path / "d").exists()

    def test_fewer_train_rows_than_tasks_give_a_base_pair_that_fine_tunes(
            self, tmp_path):
        # train_size // K drew no base row per region: a header-only
        # base_train.csv that fine-tune refused
        data = tmp_path / "d"
        assert main(["gen-tasks", "--out", str(data), "--tasks", "5",
                     "--train-size", "3"]) == 0
        assert read_dataset(data / "base_train.csv")[0].shape == (5, 16)
        assert main(["fine-tune", "--train", str(data / "base_train.csv"),
                     "--test", str(data / "base_test.csv"), "--steps", "1",
                     "-o", str(tmp_path / "base.tswp")]) == 0

    @pytest.mark.parametrize("flag", ["--noise", "--task-separation",
                                      "--class-separation", "--min-task-gap"])
    def test_non_finite_geometry_exits_2(self, tmp_path, capsys, flag):
        # such a draw would write CSVs that read_dataset refuses
        assert _gen(tmp_path / "d", extra=(flag, "nan")) == 2
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be finite\n"
        assert not (tmp_path / "d").exists()


# the arguments each command requires, around its float flags
REQUIRED = {
    "gen-tasks": ["--out", "d"],
    "fine-tune": ["--train", "t.csv", "-o", "m.tswp"],
    "tswitch": ["--base", "b.tswp", "--finetuned", "a=f.tswp", "-o", "o"],
    "compress": ["--base", "b.tswp", "--finetuned", "f.tswp",
                 "--exemplars", "e.csv", "-o", "c.tswc"],
    "probe": ["sparsity", "--base", "b.tswp", "--finetuned", "f.tswp",
              "--data", "d.csv"],
    "train-metric": ["--index", "r.idx", "--base", "b.tswp",
                     "--task", "a=t.csv", "-o", "r2.idx"],
    "baseline": ["--base", "b.tswp", "--finetuned", "a=f.tswp",
                 "--task", "a=t.csv"],
}


def _float_flags():
    """(command, flag) for every option whose type reads '0.5' as a float."""
    sub = next(a for a in build_parser()._actions if a.choices)
    flags = []
    for command, parser in sub.choices.items():
        for action in parser._actions:
            try:
                value = action.type("0.5") if action.type else None
            except (ValueError, argparse.ArgumentTypeError):
                continue
            if isinstance(value, float):
                flags.append((command, action.option_strings[-1]))
    return flags


@pytest.mark.parametrize("command, flag", _float_flags(),
                         ids=lambda v: v)
def test_negative_exponent_parses_as_its_equals_form(capsys, command, flag):
    # argparse took "-1e308" for an option ("expected one argument"); every
    # float flag now reads it as "--flag=-1e308" does, value or refusal
    for value in ("-1e308", "-2.5E-3", "-1e+2", "-.5e1", "-inf"):
        outcomes = []
        for tail in ([flag, value], [f"{flag}={value}"]):
            try:
                outcomes.append(build_parser().parse_args(
                    [command, *REQUIRED[command], *tail]))
            except SystemExit as exc:
                outcomes.append((exc.code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert "expected one argument" not in str(outcomes[0])


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("tasks = 2\ndim = 6\nclasses = 3\n"
                       "train_size = 60\ntest_size = 30\nseed = 4\n")
        assert main(["gen-tasks", "--out", str(tmp_path / "a"),
                     "--config", str(cfg)]) == 0
        _gen(tmp_path / "b", seed=4)
        assert filecmp.cmp(tmp_path / "a" / "task0_train.csv",
                           tmp_path / "b" / "task0_train.csv", shallow=False)

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("tasks = 2\ndim = 6\nclasses = 3\n"
                       "train_size = 60\ntest_size = 30\nseed = 4\n")
        assert main(["gen-tasks", "--out", str(tmp_path / "a"),
                     "--config", str(cfg), "--seed", "9"]) == 0
        _gen(tmp_path / "b", seed=9)
        assert filecmp.cmp(tmp_path / "a" / "task0_train.csv",
                           tmp_path / "b" / "task0_train.csv", shallow=False)

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("# comment only\n\ntasks = 2\ndim = 6\n"
                       "classes = 3  # inline\ntrain_size = 60\n"
                       "test_size = 30\n")
        assert main(["gen-tasks", "--out", str(tmp_path / "a"),
                     "--config", str(cfg)]) == 0

    def test_bad_config_line_exits_2(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("tasks 2\n")
        assert main(["gen-tasks", "--out", str(tmp_path / "a"),
                     "--config", str(cfg)]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["gen-tasks", "--out", str(tmp_path / "a"),
                     "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_config_without_value_exits_2(self):
        assert main(["gen-tasks", "--out", "x", "--config"]) == 2

    @pytest.mark.parametrize("value", ["false", "true"])
    def test_boolean_words_are_plain_values(self, tmp_path, monkeypatch,
                                            capsys, value):
        # out = false used to drop the line (--out then missing) and
        # out = true to leave --out without its argument
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"out = {value}\ntasks = 1\ndim = 6\n"
                       "train_size = 20\ntest_size = 10\n")
        assert main(["gen-tasks", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in (tmp_path / value).iterdir()) == [
            "base_test.csv", "base_train.csv", "task0_test.csv",
            "task0_train.csv"]

    @pytest.mark.parametrize("form", [["--config", "{}"], ["--config={}"],
                                      ["--conf", "{}"], ["--conf={}"]],
                             ids=["space", "equals", "abbrev", "abbrev-equals"])
    def test_every_form_applies_the_file(self, tmp_path, form):
        # the file sets two tasks, so six files are written, not eight,
        # and an explicit --tasks 1 before it still wins: four
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("tasks = 2\ndim = 6\ntrain_size = 20\n"
                       "test_size = 10\n")
        form = [t.format(cfg) for t in form]
        for out, explicit, files in (("a", [], 6), ("b", ["--tasks", "1"], 4)):
            assert main(["gen-tasks", *explicit, *form,
                         "--out", str(tmp_path / out)]) == 0
            assert len(list((tmp_path / out).iterdir())) == files

    @pytest.mark.parametrize("form", ["--config={}", "--conf={}"])
    def test_missing_file_in_every_form_exits_2(self, tmp_path, capsys,
                                                form):
        missing = tmp_path / "nope.cfg"
        assert main(["gen-tasks", "--out", str(tmp_path / "a"),
                     form.format(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("second", [["--config", "{}"], ["--conf={}"], []],
                             ids=["repeated", "abbrev-equals", "in-the-file"])
    def test_second_config_exits_2(self, tmp_path, capsys, second):
        first, other = tmp_path / "c2.cfg", tmp_path / "c3.cfg"
        first.write_text("tasks = 2\n" + ("" if second else
                                          f"config = {other}\n"))
        other.write_text("tasks = 3\n")
        assert main(["gen-tasks", "--out", str(tmp_path / "a"),
                     "--config", str(first),
                     *(t.format(other) for t in second)]) == 2
        assert capsys.readouterr().err == "error: --config given twice\n"
        assert not (tmp_path / "a").exists()

    def test_required_flag_from_the_file(self, tmp_path):
        out = tmp_path / "a"
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"out = {out}\ntasks = 2\ndim = 6\n"
                       "train_size = 20\ntest_size = 10\n")
        assert main(["gen-tasks", f"--config={cfg}"]) == 0
        assert len(list(out.iterdir())) == 6

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_bytes(b"tasks = 2\n# caf\xe9\n")
        assert main(["gen-tasks", "--out", str(tmp_path / "a"),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 2: not UTF-8 text (invalid continuation "
            "byte at byte 15)\n")
        assert not (tmp_path / "a").exists()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run every subcommand once on a tiny two-task problem."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert _gen(data) == 0
    widths = ["--widths", "6,10,3"]

    def ft(train, out, name, init=None):
        argv = ["fine-tune", "--train", str(data / train),
                "--steps", "80", "--lr", "0.1", "--optimizer", "sgd",
                "--name", name, "-o", str(root / out)]
        argv += ["--init", str(root / init)] if init else widths
        assert main(argv) == 0

    ft("base_train.csv", "base.tswp", "base")
    ft("task0_train.csv", "ft0.tswp", "task0", init="base.tswp")
    ft("task1_train.csv", "ft1.tswp", "task1", init="base.tswp")

    assert main(["tswitch", "--base", str(root / "base.tswp"),
                 "--finetuned", f"task0={root / 'ft0.tswp'}",
                 "--finetuned", f"task1={root / 'ft1.tswp'}",
                 "--alpha", "0.8", "-o", str(root / "switch.tswc")]) == 0

    for k in (0, 1):
        assert main(["compress", "--base", str(root / "base.tswp"),
                     "--finetuned", str(root / f"ft{k}.tswp"),
                     "--exemplars", str(data / f"task{k}_train.csv"),
                     "--steps", "40", "--exemplar-count", "30",
                     "--log", str(root / f"hist{k}.csv"),
                     "-o", str(root / f"c{k}.tswc")]) == 0

    tasks = ["--task", f"task0={data / 'task0_train.csv'}",
             "--task", f"task1={data / 'task1_train.csv'}"]
    assert main(["build-index", "--base", str(root / "base.tswp"), *tasks,
                 "--exemplar-count", "30", "--centers", "5",
                 "-o", str(root / "refs.idx")]) == 0
    assert main(["train-metric", "--index", str(root / "refs.idx"),
                 "--base", str(root / "base.tswp"), *tasks,
                 "--exemplar-count", "30", "--rank", "4", "--epochs", "5",
                 "--lr", "0.3", "--neighbors", "3",
                 "--log", str(root / "mloss.csv"),
                 "-o", str(root / "refs2.idx")]) == 0
    return root, data


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        root, _ = pipeline_dir
        for name in ("base.tswp", "ft0.tswp", "ft1.tswp", "switch.tswc",
                     "c0.tswc", "c1.tswc", "refs.idx", "refs2.idx"):
            assert (root / name).stat().st_size > 0, name

    def test_compress_history_schema(self, pipeline_dir):
        root, _ = pipeline_dir
        rows = _read_csv(root / "hist0.csv")
        assert rows[0] == ["step", "rho", "omega", "sparsity", "bits",
                           "preserve", "total"]
        assert len(rows) == 41  # header + one row per step

    def test_metric_log_schema(self, pipeline_dir):
        root, _ = pipeline_dir
        rows = _read_csv(root / "mloss.csv")
        assert rows[0] == ["epoch", "loss"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]

    def test_inspect_table_and_csv(self, pipeline_dir, capsys):
        root, _ = pipeline_dir
        assert main(["inspect", str(root / "c0.tswc"),
                     "--csv", str(root / "inspect.csv")]) == 0
        out = capsys.readouterr().out
        assert "task0" in out and "GROUPED" in out or "INDEP" in out
        rows = _read_csv(root / "inspect.csv")
        assert rows[0][:4] == ["task", "module", "format", "n"]
        assert len(rows) == 5  # header + 4 modules
        # the header each stream was read with: compress writes the short
        # spelling, 108 bits plus the count's and any group index's
        assert rows[0][-2:] == ["file_bits", "header_bits"]
        (_, decoded), = load_container(root / "c0.tswc")[0]
        assert [int(r[-1]) for r in rows[1:]] == \
            [dm.header_bits for dm in decoded]
        assert all(108 < int(r[-1]) < 137 for r in rows[1:])

    def test_probe_reports(self, pipeline_dir, capsys):
        root, data = pipeline_dir
        common = ["--base", str(root / "base.tswp"),
                  "--finetuned", str(root / "ft0.tswp"),
                  "--data", str(data / "task0_test.csv")]
        assert main(["probe", "sparsity", *common, "--level", "layer",
                     "-o", str(root / "ps.csv")]) == 0
        assert _read_csv(root / "ps.csv")[0] == ["unit", "accuracy", "drop"]
        assert main(["probe", "scale", *common,
                     "-o", str(root / "pe.csv")]) == 0
        out = capsys.readouterr().out
        assert "best eta" in out
        rows = _read_csv(root / "pe.csv")
        assert rows[0] == ["eta", "accuracy", "drop"] and len(rows) == 21

    def _probe_inputs(self, root, data):
        spec, base, _ = load_params(root / "base.tswp")
        _, tuned, name = load_params(root / "ft0.tswp")
        x, y = read_dataset(data / "task0_test.csv")
        return spec, base, diff(tuned, base, name), x, y

    def _probe_csv(self, root, data, tmp_path, kind, *extra):
        out = tmp_path / f"{kind}.csv"
        assert main(["probe", kind, "--base", str(root / "base.tswp"),
                     "--finetuned", str(root / "ft0.tswp"),
                     "--data", str(data / "task0_test.csv"), *extra,
                     "-o", str(out)]) == 0
        assert out.read_bytes().endswith(b"\r\n")   # csv.writer's lines
        return _read_csv(out)

    def test_probe_scale_csv_schema(self, pipeline_dir, tmp_path):
        root, data = pipeline_dir
        _, rows, _ = probe_scale(*self._probe_inputs(root, data))
        assert self._probe_csv(root, data, tmp_path, "scale") == (
            [["eta", "accuracy", "drop"]]
            + [[f"{r.eta:.1f}", f"{r.accuracy:.6f}", f"{r.drop:.6f}"]
               for r in rows])

    @pytest.mark.parametrize("kind", ["sparsity", "precision"])
    def test_probe_unit_csv_schema(self, pipeline_dir, tmp_path, kind):
        root, data = pipeline_dir
        probe = probe_sparsity if kind == "sparsity" else probe_precision
        _, rows = probe(*self._probe_inputs(root, data), level="layer")
        assert self._probe_csv(root, data, tmp_path, kind, "--level",
                               "layer") == (
            [["unit", "accuracy", "drop"]]
            + [[r.unit, f"{r.accuracy:.6f}", f"{r.drop:.6f}"] for r in rows])
        assert [r.unit for r in rows] == ["layer0", "layer1"]

    def test_merge_eval_report(self, pipeline_dir, capsys):
        root, data = pipeline_dir
        assert main(["merge-eval", "--base", str(root / "base.tswp"),
                     "--index", str(root / "refs2.idx"),
                     "--bundle", str(root / "c0.tswc"),
                     "--bundle", str(root / "c1.tswc"),
                     "--task", f"task0={data / 'task0_test.csv'}",
                     "--task", f"task1={data / 'task1_test.csv'}",
                     "--neighbors", "3",
                     "-o", str(root / "acc.csv")]) == 0
        assert "average" in capsys.readouterr().out
        rows = _read_csv(root / "acc.csv")
        assert rows[0] == ["task", "accuracy"]
        assert [r[0] for r in rows[1:]] == ["task0", "task1", "average"]

    def test_baseline_report(self, pipeline_dir):
        root, data = pipeline_dir
        assert main(["baseline", "--base", str(root / "base.tswp"),
                     "--finetuned", f"task0={root / 'ft0.tswp'}",
                     "--finetuned", f"task1={root / 'ft1.tswp'}",
                     "--mode", "task-arithmetic", "--scale", "0.4",
                     "--task", f"task0={data / 'task0_test.csv'}",
                     "--task", f"task1={data / 'task1_test.csv'}",
                     "-o", str(root / "bl.csv")]) == 0
        rows = _read_csv(root / "bl.csv")
        assert [r[0] for r in rows] == ["task", "task0", "task1", "average"]

    def test_fine_tune_reports_accuracy(self, pipeline_dir, capsys):
        root, data = pipeline_dir
        assert main(["fine-tune", "--train", str(data / "task0_train.csv"),
                     "--test", str(data / "task0_test.csv"),
                     "--init", str(root / "base.tswp"), "--steps", "5",
                     "-o", str(root / "tmp.tswp")]) == 0
        out = capsys.readouterr().out
        assert "train accuracy" in out and "test accuracy" in out


    @pytest.mark.parametrize("flags, config, named", [
        (["--widths", "6,8,8,3"], "", "--widths"),
        (["--activation", "relu"], "", "--activation"),
        (["--widths", "6,10,3", "--activation", "tanh"], "",
         "--widths and --activation"),
        ([], "widths = 6,8,8,3\n", "--widths"),
    ], ids=["widths", "activation", "both", "config"])
    def test_shape_flags_with_a_container_init_exit_2(
            self, pipeline_dir, tmp_path, capsys, flags, config, named):
        # the container fixes the shape; the flags used to be ignored
        root, data = pipeline_dir
        if config:
            (tmp_path / "ft.cfg").write_text(config)
            flags = ["--config", str(tmp_path / "ft.cfg")]
        assert main(["fine-tune", "--train", str(data / "task0_train.csv"),
                     "--init", str(root / "base.tswp"), "--steps", "1",
                     *flags, "-o", str(tmp_path / "m.tswp")]) == 2
        assert capsys.readouterr().err == (
            f"error: {named} cannot be used with --init "
            f"{root / 'base.tswp'}: the container fixes the model's shape\n")
        assert not (tmp_path / "m.tswp").exists()

    def test_random_init_keeps_the_default_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        write_dataset(tmp_path / "t.csv", rng.normal(size=(8, 16)),
                      np.arange(8) % 4)
        assert main(["fine-tune", "--train", str(tmp_path / "t.csv"),
                     "--steps", "1", "-o", str(tmp_path / "m.tswp")]) == 0
        spec = load_params(tmp_path / "m.tswp")[0]
        assert (spec.widths, spec.activation) == ((16, 32, 4), "tanh")


# every subcommand that feeds a CSV to a model, with that CSV swapped in
CSV_COMMANDS = {
    "fine-tune": lambda root, data, csv, out: [
        "fine-tune", "--train", str(csv), "--widths", "6,10,3",
        "--steps", "1", "-o", str(out / "m.tswp")],
    "fine-tune-test": lambda root, data, csv, out: [
        "fine-tune", "--train", str(data / "task0_train.csv"),
        "--test", str(csv), "--widths", "6,10,3", "--steps", "1",
        "-o", str(out / "m.tswp")],
    "compress": lambda root, data, csv, out: [
        "compress", "--base", str(root / "base.tswp"),
        "--finetuned", str(root / "ft0.tswp"), "--exemplars", str(csv),
        "--steps", "1", "-o", str(out / "c.tswc")],
    "probe": lambda root, data, csv, out: [
        "probe", "scale", "--base", str(root / "base.tswp"),
        "--finetuned", str(root / "ft0.tswp"), "--data", str(csv)],
    "build-index": lambda root, data, csv, out: [
        "build-index", "--base", str(root / "base.tswp"),
        "--task", f"task0={data / 'task0_train.csv'}",
        "--task", f"task1={csv}", "-o", str(out / "r.idx")],
    "train-metric": lambda root, data, csv, out: [
        "train-metric", "--index", str(root / "refs.idx"),
        "--base", str(root / "base.tswp"),
        "--task", f"task0={data / 'task0_train.csv'}",
        "--task", f"task1={csv}", "--epochs", "1", "-o", str(out / "r.idx")],
    "merge-eval": lambda root, data, csv, out: [
        "merge-eval", "--base", str(root / "base.tswp"),
        "--index", str(root / "refs2.idx"),
        "--bundle", str(root / "c0.tswc"), "--bundle", str(root / "c1.tswc"),
        "--task", f"task0={data / 'task0_test.csv'}",
        "--task", f"task1={csv}"],
    "baseline": lambda root, data, csv, out: [
        "baseline", "--base", str(root / "base.tswp"),
        "--finetuned", f"task0={root / 'ft0.tswp'}",
        "--finetuned", f"task1={root / 'ft1.tswp'}",
        "--task", f"task0={data / 'task0_test.csv'}",
        "--task", f"task1={csv}"],
}


def _seed_argv(command, root, data, out):
    """A run of command on the pipeline's files that writes only to out."""
    if command == "gen-tasks":
        return ["gen-tasks", "--out", str(out / "d")]
    if command == "tswitch":
        return ["tswitch", "--base", str(root / "base.tswp"), "--finetuned",
                f"task0={root / 'ft0.tswp'}", "-o", str(out / "s.tswc")]
    if command == "inspect":
        return ["inspect", str(root / "c0.tswc"), "--csv", str(out / "i.csv")]
    argv = CSV_COMMANDS[command](root, data, data / "task1_test.csv", out)
    return argv if "-o" in argv else argv + ["-o", str(out / "report.csv")]


class TestErrorPaths:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_negative_seed_names_the_flag(self, pipeline_dir, tmp_path,
                                          capsys, command):
        # refused while parsing, before any file is read or written
        root, data = pipeline_dir
        argv = _seed_argv(command, root, data, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"taskswitch {command}: error: argument --seed: must be a "
            "non-negative integer, got '-1'")
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_in_config_names_the_flag(self, pipeline_dir,
                                                    tmp_path, capsys):
        root, data = pipeline_dir
        config = tmp_path / "run.cfg"
        config.write_text("seed = -5\n")
        with pytest.raises(SystemExit) as exc:
            main(_seed_argv("compress", root, data, tmp_path)
                 + ["--config", str(config)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "taskswitch compress: error: argument --seed: must be a "
            "non-negative integer, got '-5'")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("base", ["base.tswp", "missing.tswp"])
    def test_cka_batch_of_one_refused_up_front(self, pipeline_dir, tmp_path,
                                               capsys, base):
        # the same refusal whether or not --base names a file: nothing is
        # read first
        root, data = pipeline_dir
        argv = CSV_COMMANDS["compress"](root, data, data / "task0_train.csv",
                                        tmp_path)
        argv[argv.index("--base") + 1] = str(root / base)
        assert main(argv + ["--ppl", "cka", "--batch-size", "1"]) == 2
        assert capsys.readouterr() == ("", (
            "error: --batch-size must be at least 2 for --ppl cka, got 1\n"))
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_file(self, tmp_path):
        assert main(["fine-tune", "--train", str(tmp_path / "no.csv"),
                     "-o", str(tmp_path / "m.tswp")]) == 2

    def test_model_shape_mismatch(self, pipeline_dir, tmp_path):
        root, data = pipeline_dir
        assert main(["fine-tune", "--train", str(data / "task0_train.csv"),
                     "--widths", "6,4,3", "--steps", "1", "--name", "other",
                     "-o", str(tmp_path / "small.tswp")]) == 0
        assert main(["tswitch", "--base", str(root / "base.tswp"),
                     "--finetuned", f"t={tmp_path / 'small.tswp'}",
                     "-o", str(tmp_path / "x.tswc")]) == 2

    def test_inspect_garbage_exits_2(self, tmp_path):
        bad = tmp_path / "junk.tswc"
        bad.write_bytes(b"\x00" * 40)
        assert main(["inspect", str(bad)]) == 2

    def test_inspect_bad_metadata_exits_2(self, tmp_path, capsys):
        # metadata that is not a JSON object, not JSON, or followed by junk
        sw = build_switch(TaskVector("t", [("a", np.arange(-4.0, 4.0))]),
                          alpha=0.5)
        good = tmp_path / "good.tswc"
        save_bundle(good, [("t", sw.to_streams())], ["a"])
        data = good.read_bytes()
        meta_at = len(data) - len(b'{"module_names": ["a"]}')
        for meta, tail in ((b"[]", b""), (b"{x", b""),
                           (data[meta_at:], b"junk")):
            bad = tmp_path / "bad.tswc"
            bad.write_bytes(data[:meta_at - 4] + len(meta).to_bytes(4, "little")
                            + meta + tail)
            assert main(["inspect", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and "at byte" in err
            assert "Traceback" not in err

    def test_inspect_non_utf8_task_id_exits_2(self, tmp_path, capsys):
        sw = build_switch(TaskVector("t", [("a", np.arange(-4.0, 4.0))]),
                          alpha=0.5)
        bad = tmp_path / "bad.tswc"
        save_bundle(bad, [("t", sw.to_streams())], ["a"])
        data = bytearray(bad.read_bytes())
        data[9] = 0xFF                   # the first byte of the task id
        bad.write_bytes(bytes(data))
        assert main(["inspect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: task id is not UTF-8 at byte 9")
        assert "Traceback" not in err

    def test_inspect_module_names_not_a_list_exits_2(self, tmp_path, capsys):
        sw = build_switch(TaskVector("t", [("a", np.arange(-4.0, 4.0))]),
                          alpha=0.5)
        bad = tmp_path / "bad.tswc"
        save_container(bad, [("t", sw.to_streams())],
                       metadata={"module_names": 5})
        assert main(["inspect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: module_names is not a list")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        lambda root, data, out: [
            "fine-tune", "--train", str(data / "task0_train.csv"),
            "--init", str(root / "c0.tswc"), "--steps", "1",
            "-o", str(out / "written")],
        lambda root, data, out: [
            "probe", "scale", "--base", str(root / "c0.tswc"),
            "--finetuned", str(root / "ft0.tswp"),
            "--data", str(data / "task0_test.csv"),
            "-o", str(out / "written")],
    ], ids=["fine-tune-init", "probe-base"])
    def test_compress_bundle_as_model_exits_2(self, pipeline_dir, tmp_path,
                                              capsys, argv):
        root, data = pipeline_dir
        assert main(argv(root, data, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {root / 'c0.tswc'}: module ")
        assert "not a dense parameter stream" in err
        assert "Traceback" not in err
        assert not (tmp_path / "written").exists()

    def test_probe_bad_model_layout_exits_2(self, tmp_path, capsys):
        spec = MlpSpec((6, 4, 3))
        ps = init_params(spec, seed=0)
        base = tmp_path / "base.tswp"
        for model, field in (({"widths": "abc", "activation": "tanh"},
                              "model.widths"),
                             ({"widths": [6, 4, 3]}, "model.activation")):
            save_container(base, [("base", streams_from_params(ps))],
                           metadata={"model": model,
                                     "module_names": ps.names})
            assert main(["probe", "scale", "--base", str(base),
                         "--finetuned", str(base),
                         "--data", str(tmp_path / "none.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {base}: {field} is not")
            assert "Traceback" not in err

    def test_bad_widths_argument(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fine-tune", "--train", "x.csv", "--widths", "16",
                  "-o", "m.tswp"])

    @pytest.mark.parametrize("widths", ["16,0,4", "16,-3,4"])
    def test_widths_below_one_exit_2(self, tmp_path, capsys, widths):
        with pytest.raises(SystemExit) as exc:
            main(["fine-tune", "--train", "x.csv", "--widths", widths,
                  "-o", str(tmp_path / "m.tswp")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --widths: entries must be at least 1, got {widths!r}" \
            in err and "Traceback" not in err

    @pytest.mark.parametrize("widths, layer, weights", [
        ("16,100000000,4", 0, 1600000000),
        ("4,8,67108864", 1, 536870912),
        ("2,67108864", 0, 134217728),
    ])
    def test_widths_past_a_module_exit_2(self, capsys, widths, layer,
                                         weights):
        # parsed only: such a model would not fit in memory
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fine-tune", "--train", "x.csv",
                                       "--widths", widths, "-o", "m.tswp"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"taskswitch fine-tune: error: argument --widths: layer {layer} "
            f"would have {weights} weights, a stored module holds at most "
            "134217727")

    def test_widths_of_the_largest_module_parse(self):
        args = build_parser().parse_args(["fine-tune", "--train", "x.csv",
                                          "--widths", "1,134217727,1",
                                          "-o", "m.tswp"])
        assert args.widths == (1, 134217727, 1)

    @pytest.mark.parametrize("rows, what", [
        ("1,2,0\n1,2\n", "line 3: 2 fields, the header has 3"),
        ("1,2,0\nnan,2,1\n", "line 3: non-finite feature"),
        ("1,2,-1\n", "line 2: label '-1' is not a non-negative integer"),
        ("1,2,1.5\n", "line 2: label '1.5' is not a non-negative integer"),
        ("1,2,0\n1,2,3\n", "label 3 is out of range for the model's 3 classes"),
        ("1,2," + "1" * 5000 + "\n",
         f"line 2: label '{'1' * 5000}' is not a non-negative integer"),
    ], ids=["ragged", "nan", "negative", "fraction", "too-large",
            "5000-digits"])
    def test_bad_training_csv_exits_2(self, tmp_path, capsys, rows, what):
        path = tmp_path / "train.csv"
        path.write_text("x0,x1,label\n" + rows)
        assert main(["fine-tune", "--train", str(path), "--widths", "2,4,3",
                     "--steps", "1", "-o", str(tmp_path / "m.tswp")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: {what}\n"

    @pytest.mark.parametrize("csv_text, what", [
        ("x0,x1,label\n1,2,0\n",
         "2 features per row, the model's input width is 6"),
        ("x0,x1,x2,x3,x4,x5,label\n", "no data rows"),
    ], ids=["width", "header-only"])
    @pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
    def test_csv_the_model_cannot_take_exits_2(self, pipeline_dir, tmp_path,
                                               capsys, command, csv_text,
                                               what):
        root, data = pipeline_dir
        path = tmp_path / "bad.csv"
        path.write_text(csv_text)
        assert main(CSV_COMMANDS[command](root, data, path, tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {path}: {what}\n"

    @pytest.mark.parametrize("csv_bytes, what", [
        (b"x0,x1,x2,x3,x4,x5,label\r\n1,2,3,4,5,6,0\r\n1,2,3,\xff,5,6,1\r\n",
         "line 3: not UTF-8 text (invalid start byte at byte 46)"),
        (b"x0,x1,x2,x3,x4,x5,label\r\n1,2,3,4,5,6,0\r\n"
         + b"1" * 131073 + b",2,3,4,5,6,0\r\n",
         "line 3: field larger than field limit (131072)"),
    ], ids=["not-utf8", "field-over-limit"])
    @pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
    def test_csv_the_reader_cannot_parse_exits_2(self, pipeline_dir, tmp_path,
                                                 capsys, command, csv_bytes,
                                                 what):
        root, data = pipeline_dir
        path = tmp_path / "bad.csv"
        path.write_bytes(csv_bytes)
        assert main(CSV_COMMANDS[command](root, data, path, tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {path}: {what}\n"

    @pytest.mark.parametrize("neighbors", ["0", "500"])
    def test_train_metric_neighbors_out_of_range_exit_2(
            self, pipeline_dir, tmp_path, capsys, neighbors):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["train-metric"](root, data,
                                            data / "task1_train.csv", tmp_path)
        assert main(argv + ["--neighbors", neighbors]) == 2
        assert capsys.readouterr().err == (
            f"error: --neighbors must be in [1, 10], got {neighbors}\n")
        assert not (tmp_path / "r.idx").exists()

    @pytest.mark.parametrize("neighbors", ["0", "11"])
    def test_merge_eval_neighbors_out_of_range_exit_2(
            self, pipeline_dir, tmp_path, capsys, neighbors):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["merge-eval"](root, data,
                                          data / "task1_test.csv", tmp_path)
        assert main(argv + ["--neighbors", neighbors,
                            "-o", str(tmp_path / "acc.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: --neighbors must be in [1, 10], got {neighbors}\n")
        assert not (tmp_path / "acc.csv").exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("command, flag, out", [
        ("compress", "--exemplar-count", "c.tswc"),
        ("build-index", "--exemplar-count", "r.idx"),
        ("train-metric", "--exemplar-count", "r.idx"),
        ("compress", "--batch-size", "c.tswc"),
        ("fine-tune", "--batch-size", "m.tswp"),
        ("train-metric", "--rank", "r.idx"),
        ("train-metric", "--epochs", "r.idx"),
        ("compress", "--steps", "c.tswc"),
        ("fine-tune", "--steps", "m.tswp"),
    ], ids=["compress-c.tswc", "build-index-r.idx", "train-metric-r.idx",
            "compress-batch-size", "fine-tune-batch-size",
            "train-metric-rank", "train-metric-epochs", "compress-steps",
            "fine-tune-steps"])
    def test_exemplar_count_below_one_exit_2(self, pipeline_dir, tmp_path,
                                             capsys, command, flag, out,
                                             count):
        # Every count flag goes through cli._count, not only --exemplar-count
        root, data = pipeline_dir
        argv = CSV_COMMANDS[command](root, data, data / "task1_train.csv",
                                     tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, count])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"taskswitch {command}: error: argument {flag}: "
            f"must be at least 1, got {count!r}")
        assert "Traceback" not in err
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("temp", ["0", "-1", "inf", "nan"])
    def test_softmax_temp_not_positive_exit_2(self, pipeline_dir, tmp_path,
                                              capsys, temp):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["compress"](root, data, data / "task0_train.csv",
                                        tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--softmax-temp", temp])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "taskswitch compress: error: argument --softmax-temp: "
            f"must be positive and finite, got {temp!r}")
        assert not (tmp_path / "c.tswc").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    @pytest.mark.parametrize("command, out", [("fine-tune", "m.tswp"),
                                              ("train-metric", "r.idx")])
    def test_lr_not_positive_exit_2(self, pipeline_dir, tmp_path, capsys,
                                    command, out, lr):
        root, data = pipeline_dir
        argv = CSV_COMMANDS[command](root, data, data / "task1_train.csv",
                                     tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--lr", lr])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"taskswitch {command}: error: argument --lr: "
            f"must be positive and finite, got {lr!r}")
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_scale_not_finite_exit_2(self, pipeline_dir, tmp_path, capsys,
                                     scale):
        # a negative coefficient subtracts the task vectors and stays allowed
        root, data = pipeline_dir
        argv = CSV_COMMANDS["baseline"](root, data, data / "task1_test.csv",
                                        tmp_path) + [
            "--mode", "task-arithmetic", "-o", str(tmp_path / "bl.csv")]
        assert main(argv + ["--scale=-0.5"]) == 0
        (tmp_path / "bl.csv").unlink()
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--scale={scale}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "taskswitch baseline: error: argument --scale: "
            f"must be finite, got {scale!r}")
        assert not (tmp_path / "bl.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tasks", [1, 2])
    def test_baseline_non_finite_logits_exit_2(self, pipeline_dir, tmp_path,
                                               capsys, tasks):
        # with one task the merged parameters stay finite and the forward
        # overflows; with two the merge itself does. Either is refused
        # without a numpy warning and without a report.
        root, data = pipeline_dir
        argv = CSV_COMMANDS["baseline"](root, data, data / "task1_test.csv",
                                        tmp_path) + [
            "--mode", "task-arithmetic", "--scale", "1e308",
            "-o", str(tmp_path / "bl.csv")]
        if tasks == 1:
            at = argv.index(f"task1={root / 'ft1.tswp'}")
            del argv[at - 1:at + 1]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            f"error: {data / 'task0_test.csv'}: the task-arithmetic merge "
            "gives non-finite logits at --scale 1e+308\n"))
        assert not (tmp_path / "bl.csv").exists()

    @pytest.mark.parametrize("count", ["0", "-5"])
    @pytest.mark.parametrize("flag", ["--tasks", "--dim", "--classes",
                                      "--train-size", "--test-size"])
    def test_gen_tasks_count_below_one_exit_2(self, tmp_path, capsys, flag,
                                              count):
        with pytest.raises(SystemExit) as exc:
            _gen(tmp_path / "d", extra=(flag, count))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"taskswitch gen-tasks: error: argument {flag}: "
            f"must be at least 1, got {count!r}")
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("command", ["tswitch", "probe"])
    def test_alpha_outside_unit_interval_exit_2(self, tmp_path, capsys,
                                                command, alpha):
        # refused while parsing: --base names no file, and none is read
        missing = str(tmp_path / "missing.tswp")
        argv = {"tswitch": ["tswitch", "--finetuned", f"a={missing}",
                            "-o", str(tmp_path / "s.tswc")],
                "probe": ["probe", "sparsity", "--finetuned", missing,
                          "--data", str(tmp_path / "d.csv")]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--base", missing, "--alpha", alpha])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"taskswitch {command}: error: argument --alpha: "
            f"must be in [0, 1], got {alpha!r}")
        assert not (tmp_path / "s.tswc").exists()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # a command that cannot allocate exits 2 with one line; the error is
        # raised by hand, as a real allocation this large might succeed
        def exhausted(args):
            raise MemoryError("Unable to allocate 149. GiB for an array")
        monkeypatch.setitem(COMMANDS, "gen-tasks", exhausted)
        assert _gen(tmp_path / "d") == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 149. GiB for an "
            "array\n")

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_lambda_not_finite_exit_2(self, pipeline_dir, tmp_path, capsys,
                                      lam):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["compress"](root, data, data / "task0_train.csv",
                                        tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--lambda={lam}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "taskswitch compress: error: argument --lambda: "
            f"must be finite, got {lam!r}")
        assert not (tmp_path / "c.tswc").exists()

    def test_parameters_past_float32_exit_2(self, pipeline_dir, tmp_path,
                                            capsys):
        # a huge step leaves finite float64 values that float32 cannot hold;
        # the file is refused before it is written, not when it is read
        root, data = pipeline_dir
        argv = CSV_COMMANDS["fine-tune"](root, data, data / "task0_train.csv",
                                         tmp_path)
        assert main(argv + ["--lr", "1e300", "--steps", "5"]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'm.tswp'}: dense values must be finite in "
            "float32\n")
        assert not (tmp_path / "m.tswp").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_fine_tune_names_the_step_exit_2(
            self, pipeline_dir, tmp_path, capsys):
        # relu lets a huge step overflow the next forward: the loss is
        # refused at that step, with no numpy warning and no file
        root, data = pipeline_dir
        argv = CSV_COMMANDS["fine-tune"](root, data, data / "task0_train.csv",
                                         tmp_path)
        argv[argv.index("--steps") + 1] = "30"
        assert main(argv + ["--lr", "1e300", "--activation", "relu"]) == 2
        err = capsys.readouterr().err
        assert err == "error: loss became non-finite at step 1: {'loss': nan}\n"
        assert not (tmp_path / "m.tswp").exists()

    def test_train_metric_task_mismatch_names_index_and_tasks(
            self, pipeline_dir, tmp_path, capsys):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["train-metric"](root, data,
                                            data / "task1_train.csv", tmp_path)
        argv[argv.index(f"task1={data / 'task1_train.csv'}")] = \
            f"other={data / 'task1_train.csv'}"
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --index {root / 'refs.idx'}: feature tasks ['task0', "
            "'other'] do not match the index's tasks ['task0', 'task1']\n")
        assert not (tmp_path / "r.idx").exists()

    def test_over_long_task_id_exits_2(self, pipeline_dir, tmp_path, capsys):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["compress"](root, data, data / "task0_train.csv",
                                        tmp_path)
        assert main(argv + ["--task", "t" * 70000]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'c.tswc'}: task id of 70000 bytes is over "
            "the 65535 a file can hold\n")
        assert not (tmp_path / "c.tswc").exists()

    def test_model_file_contradicting_its_layout_exits_2(
            self, pipeline_dir, tmp_path, capsys):
        # modules of a 6,10,3 model stored under a 6,20,3 layout
        root, data = pipeline_dir
        _, params, _ = load_params(root / "base.tswp")
        liar = tmp_path / "liar.tswp"
        save_container(liar, [("base", streams_from_params(params))],
                       metadata={"model": MlpSpec((6, 20, 3)).to_dict(),
                                 "module_names": params.names})
        argv = CSV_COMMANDS["build-index"](root, data,
                                           data / "task1_train.csv", tmp_path)
        argv[argv.index("--base") + 1] = str(liar)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {liar}: module 'layer0.weight': size 120 vs 60\n")
        assert not (tmp_path / "r.idx").exists()

    @pytest.mark.parametrize("command", ["train-metric", "merge-eval"])
    def test_index_of_another_feature_width_exits_2(
            self, pipeline_dir, tmp_path, capsys, command):
        root, data = pipeline_dir
        other = tmp_path / "other.tswp"
        assert main(["fine-tune", "--train", str(data / "base_train.csv"),
                     "--widths", "6,7,3", "--steps", "1",
                     "-o", str(other)]) == 0
        capsys.readouterr()
        argv = CSV_COMMANDS[command](root, data, data / "task1_train.csv",
                                     tmp_path)
        argv[argv.index("--base") + 1] = str(other)
        index = argv[argv.index("--index") + 1]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {index}: features of width 10, the model's have 7\n")
        assert not (tmp_path / "r.idx").exists()

    def test_merge_eval_bundle_of_another_base_exits_2(
            self, pipeline_dir, tmp_path, capsys):
        # the bundles were compressed against a 6,10,3 base
        root, data = pipeline_dir
        other = tmp_path / "other.tswp"
        assert main(["fine-tune", "--train", str(data / "base_train.csv"),
                     "--widths", "6,7,3", "--steps", "1",
                     "-o", str(other)]) == 0
        tasks = ["--task", f"task0={data / 'task0_test.csv'}",
                 "--task", f"task1={data / 'task1_test.csv'}"]
        assert main(["build-index", "--base", str(other), *tasks,
                     "--centers", "5", "-o", str(tmp_path / "r.idx")]) == 0
        capsys.readouterr()
        assert main(["merge-eval", "--base", str(other),
                     "--index", str(tmp_path / "r.idx"),
                     "--bundle", str(root / "c0.tswc"),
                     "--bundle", str(root / "c1.tswc"), *tasks,
                     "--neighbors", "3", "-o", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {root / 'c0.tswc'}: bundle 'task0' does not "
                       f"fit --base {other}: module 'layer0.weight': size 42 "
                       f"vs 60\n")
        assert not (tmp_path / "m.csv").exists()

    def test_merge_eval_bundle_of_a_task_outside_the_index_exits_2(
            self, pipeline_dir, tmp_path, capsys):
        root, data = pipeline_dir
        task0 = ["--task", f"task0={data / 'task0_test.csv'}"]
        assert main(["build-index", "--base", str(root / "base.tswp"),
                     *task0, "--centers", "5",
                     "-o", str(tmp_path / "r.idx")]) == 0
        capsys.readouterr()
        assert main(["merge-eval", "--base", str(root / "base.tswp"),
                     "--index", str(tmp_path / "r.idx"),
                     "--bundle", str(root / "c0.tswc"),
                     "--bundle", str(root / "c1.tswc"), *task0,
                     "--neighbors", "3", "-o", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: bundle holds tasks ['task1'] not in the index\n")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_compress_exits_2(self, pipeline_dir, tmp_path, capsys):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["compress"](root, data, data / "task0_train.csv",
                                        tmp_path)
        # a temperature this small overflows the logits on the first step
        assert main(argv + ["--softmax-temp", "1e-320"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: objective became non-finite at step 0")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "c.tswc").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_overflow_compress_exits_2(self, pipeline_dir, tmp_path,
                                                capsys):
        # the objective stays finite but its gradients square past
        # float64's range: the run used to exit 0 having learned nothing
        root, data = pipeline_dir
        argv = CSV_COMMANDS["compress"](root, data, data / "task0_train.csv",
                                        tmp_path)
        assert main(argv + ["--lambda", "1e300", "--steps", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gradient norm became non-finite at "
                              "step 0: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "c.tswc").exists()

    @pytest.mark.parametrize("centers", ["200", "-2"])
    def test_centers_outside_the_rows_read_exit_2(self, pipeline_dir,
                                                  tmp_path, capsys, centers):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["build-index"](root, data,
                                           data / "task1_train.csv", tmp_path)
        assert main(argv + ["--centers", centers]) == 2
        assert capsys.readouterr().err == (
            f"error: --centers must be in [0, 60] for the rows read from "
            f"{data / 'task0_train.csv'}, got {centers}\n")
        assert not (tmp_path / "r.idx").exists()

    @pytest.mark.parametrize("command, flag", [
        ("tswitch", "--finetuned"), ("build-index", "--task"),
        ("train-metric", "--task"), ("merge-eval", "--task"),
        ("baseline", "--task"), ("baseline", "--finetuned")])
    def test_repeated_name_exits_2(self, pipeline_dir, tmp_path, capsys,
                                   command, flag):
        root, data = pipeline_dir
        if command == "tswitch":
            argv = ["tswitch", "--base", str(root / "base.tswp"),
                    "--finetuned", f"task0={root / 'ft0.tswp'}",
                    "--finetuned", f"task1={root / 'ft1.tswp'}"]
        else:
            argv = CSV_COMMANDS[command](root, data, data / "task1_test.csv",
                                         tmp_path)
        at = len(argv) - 1 - argv[::-1].index(flag)   # the task1 entry
        argv[at + 1] = "task0=" + argv[at + 1].split("=", 1)[1]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-o", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"taskswitch {command}: error: argument {flag}: name 'task0' "
            "given twice")
        assert list(tmp_path.iterdir()) == []

    def test_index_with_repeated_task_ids_exits_2(self, pipeline_dir,
                                                  tmp_path, capsys):
        # a hand-made index naming task0 twice would route task1's rows to
        # task0's bundle
        root, data = pipeline_dir
        index = tmp_path / "twice.idx"
        index.write_bytes((root / "refs2.idx").read_bytes()
                          .replace(b"task1", b"task0"))
        argv = CSV_COMMANDS["merge-eval"](root, data, data / "task1_test.csv",
                                          tmp_path)
        argv[argv.index("--index") + 1] = str(index)
        assert main(argv + ["-o", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {index}: task id 'task0' is repeated in the index\n")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("name", ["base.tswp", "c0.tswc",
                                      "switch.tswc"])
    def test_other_container_as_index_exits_2(self, pipeline_dir, tmp_path,
                                              capsys, name):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["merge-eval"](root, data, data / "task1_test.csv",
                                          tmp_path)
        argv[argv.index("--index") + 1] = str(root / name)
        assert main(argv + ["-o", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {root / name}: not a reference index: expected one task "
            "holding one dense stream of scale 1\n")
        assert not (tmp_path / "m.csv").exists()

    def test_parameter_file_as_bundle_exits_2(self, pipeline_dir, tmp_path,
                                              capsys):
        root, data = pipeline_dir
        argv = CSV_COMMANDS["merge-eval"](root, data, data / "task1_test.csv",
                                          tmp_path)
        argv[argv.index("--bundle") + 1] = str(root / "base.tswp")
        assert main(argv + ["-o", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {root / 'base.tswp'}: task 'base' module "
            "'layer0.weight': a dense stream is not a compressed task "
            "vector\n")
        assert not (tmp_path / "m.csv").exists()

    def test_index_of_the_old_layout_exits_2(self, pipeline_dir, tmp_path,
                                             capsys):
        # the TSWQ layout indexes had before they were task containers
        root, data = pipeline_dir
        old = tmp_path / "old.idx"
        old.write_bytes(b"TSWQ" + struct.pack("<IH", 1, 5) + b"task0"
                        + struct.pack("<III", 1, 10, 1)
                        + np.ones(20, "<f4").tobytes())
        argv = CSV_COMMANDS["merge-eval"](root, data, data / "task1_test.csv",
                                          tmp_path)
        argv[argv.index("--index") + 1] = str(old)
        assert main(argv + ["-o", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {old}: not a task container\n")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_train_metric_exits_2(self, pipeline_dir, tmp_path,
                                           capsys):
        # a step this large overflows the distances of the second epoch;
        # before, numpy warned and save_index named the output file
        root, data = pipeline_dir
        argv = CSV_COMMANDS["train-metric"](root, data,
                                            data / "task1_train.csv", tmp_path)
        assert main(argv + ["--lr", "1e300", "--epochs", "5", "--rank", "4",
                            "--neighbors", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: loss became non-finite at epoch 1: {'loss': nan}\n")
        assert not (tmp_path / "r.idx").exists()

    def test_bad_named_argument(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["tswitch", "--base", "b.tswp", "--finetuned", "noequals",
                  "-o", "x.tswc"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
