"""The README walkthrough's bytes, pinned.

Runs the README's CLI walkthrough at desk scale in-process (gen-tasks,
fine-tune base + 3, compress x3, build-index, train-metric, merge-eval)
and compares the SHA-256 of every file it writes, and of its stdout and
stderr, with the table in walkthrough_digests.json.

The bits depend on the build: numpy's version and the CPU features it
dispatches to, the BLAS and its version, and the BLAS thread count. The
table records the build it was taken on. On any other build the test
skips, naming what differs; it never passes there. A change that alters
the walkthrough's bytes on purpose rewrites the table with

    PYTHONPATH=src python tests/test_walkthrough_digests.py

which first prints, one line each, the entries that differ from the table
it replaces.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from taskswitch.cli import main

TABLE = Path(__file__).with_name("walkthrough_digests.json")
TASKS = 3


def walkthrough() -> list[list[str]]:
    """The README walkthrough's commands, relative to its directory."""
    pairs = [a for k in range(TASKS)
             for a in ("--task", f"task{k}=data/task{k}_train.csv")]
    steps = [["gen-tasks", "--out", "data"],
             ["fine-tune", "--train", "data/base_train.csv",
              "--test", "data/base_test.csv", "--name", "base",
              "-o", "base.tswp"]]
    for k in range(TASKS):
        steps += [["fine-tune", "--train", f"data/task{k}_train.csv",
                   "--test", f"data/task{k}_test.csv", "--init", "base.tswp",
                   "--name", f"task{k}", "-o", f"ft{k}.tswp"],
                  ["compress", "--base", "base.tswp",
                   "--finetuned", f"ft{k}.tswp",
                   "--exemplars", f"data/task{k}_train.csv",
                   "--log", f"hist{k}.csv", "-o", f"task{k}.tswc"]]
    steps += [["build-index", "--base", "base.tswp", *pairs,
               "-o", "refs.idx"],
              ["train-metric", "--index", "refs.idx", "--base", "base.tswp",
               *pairs, "--log", "mloss.csv", "-o", "trained.idx"],
              ["merge-eval", "--base", "base.tswp", "--index", "trained.idx",
               *[a for k in range(TASKS)
                 for a in ("--bundle", f"task{k}.tswc")],
               *[a for k in range(TASKS)
                 for a in ("--task", f"task{k}=data/task{k}_test.csv")],
               "-o", "merged.csv"]]
    return steps


def build() -> dict:
    """What the walkthrough's bits depend on beyond the source."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    threads = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                            "OMP_NUM_THREADS")
                    if os.environ.get(v)), str(os.cpu_count()))
    return {"numpy": np.__version__,
            "simd": cfg["SIMD Extensions"]["found"],
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def digests() -> dict:
    """SHA-256 of every file the walkthrough writes, of stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                codes = [main(argv) for argv in walkthrough()]
        finally:
            os.chdir(old)
        assert codes == [0] * len(codes), err.getvalue()
        files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        table = {p.relative_to(tmp).as_posix():
                 hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    table["<stdout>"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    table["<stderr>"] = hashlib.sha256(err.getvalue().encode()).hexdigest()
    return table


def changed(got: dict, pinned: dict) -> list[str]:
    """The entries of two digest tables that differ, or that one lacks."""
    return sorted(name for name in got.keys() | pinned.keys()
                  if got.get(name) != pinned.get(name))


def test_walkthrough_bytes_match_the_pinned_table():
    pinned = json.loads(TABLE.read_text())
    here = build()
    differs = [f"{key} {here[key]!r}, pinned {pinned['build'][key]!r}"
               for key in here if here[key] != pinned["build"].get(key)]
    if differs:
        pytest.skip("walkthrough digests were pinned on another build: "
                    + "; ".join(differs))
    moved = changed(digests(), pinned["digests"])
    assert not moved, f"walkthrough bytes changed: {moved}"


if __name__ == "__main__":
    got = digests()
    old = json.loads(TABLE.read_text())["digests"] if TABLE.exists() else {}
    for name in changed(got, old):
        print(f"differs: {name}", file=sys.stderr)
    TABLE.write_text(json.dumps({"build": build(), "digests": got},
                                indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
