"""The README walkthrough's bytes, pinned.

Runs the README's CLI walkthrough at desk scale in-process (gen-tasks,
fine-tune base + 3, compress x3, build-index, train-metric, merge-eval)
and compares the SHA-256 of every file it writes, and of its stdout and
stderr, with the table in walkthrough_digests.json.

The bits depend on the build: numpy's version and the CPU features it
dispatches to, the BLAS, its version and the kernel it runs (OpenBLAS picks
one per CPU, and OPENBLAS_CORETYPE overrides it). They do not depend on the
BLAS thread count, which a test shows by running the walkthrough at another
count. The table records the build it was taken on. On any other build the test
skips, naming what differs; it never passes there. A change that alters
the walkthrough's bytes on purpose rewrites the table with

    PYTHONPATH=src python tests/test_walkthrough_digests.py

which first prints, one line each, the entries that differ from the table
it replaces.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
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


def blas_kernel() -> str | None:
    """The kernel numpy's OpenBLAS runs, as the library names it, or None
    where no library under numpy.libs says."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def build() -> dict:
    """What the walkthrough's bits depend on beyond the source."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "simd": cfg["SIMD Extensions"]["found"],
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_kernel": blas_kernel()}


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


def _child_env(**settings: str) -> dict:
    """The environment for a child process of this test, with settings
    applied and the source tree and this directory importable."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             str(Path(__file__).resolve().parent),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, **settings,
            "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_another_blas_kernel_skips_naming_it():
    # a child process, since OpenBLAS reads OPENBLAS_CORETYPE when loaded
    pinned = json.loads(TABLE.read_text())["build"]
    if build() != pinned or pinned["blas_kernel"] is None:
        pytest.skip("no pinned OpenBLAS kernel on this build to differ from")
    here = pinned["blas_kernel"]
    other = "Sandybridge" if here == "Haswell" else "Haswell"
    env = _child_env(OPENBLAS_CORETYPE=other)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p",
         "no:cacheprovider",
         f"{__file__}::test_walkthrough_bytes_match_the_pinned_table"],
        env=env, capture_output=True, text=True, timeout=600)
    assert "1 skipped" in run.stdout, run.stdout + run.stderr
    assert f"blas_kernel {other!r}, pinned {here!r}" in run.stdout


def test_digests_match_at_another_blas_thread_count():
    # a child process, since OpenBLAS reads OPENBLAS_NUM_THREADS when
    # loaded; with neither variable set it runs a thread per CPU
    pinned = json.loads(TABLE.read_text())
    if build() != pinned["build"]:
        pytest.skip("walkthrough digests were pinned on another build")
    here = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                         "OMP_NUM_THREADS")
                 if os.environ.get(v)), str(os.cpu_count()))
    other = "2" if here == "1" else "1"
    run = subprocess.run(
        [sys.executable, "-c", "import json, test_walkthrough_digests as t;"
         " print(json.dumps(t.digests()))"],
        env=_child_env(OPENBLAS_NUM_THREADS=other), capture_output=True,
        text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert not changed(got, pinned["digests"]), \
        f"{other} BLAS threads against {here}"


if __name__ == "__main__":
    got = digests()
    old = json.loads(TABLE.read_text())["digests"] if TABLE.exists() else {}
    for name in changed(got, old):
        print(f"differs: {name}", file=sys.stderr)
    TABLE.write_text(json.dumps({"build": build(), "digests": got},
                                indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
