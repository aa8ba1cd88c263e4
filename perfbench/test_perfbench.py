"""Smoke tests of the benchmark itself (about a minute; not in tier 1).

    python3 -m pytest -q perfbench/test_perfbench.py

Each test runs ``run.py --smoke`` as its own process from the checkout
root, the way the benchmark is run, and reads the result line;
``--seconds 0`` keeps every section at its fixed count, so two runs attempt
the same operations. The walkthrough keeps its full size (its
correctness bounds need the full training schedule), so a clean smoke run
also shows that the program passes every check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra: str, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundle-io",
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke",
         *extra], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _assert_named(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float))


@pytest.fixture(scope="module")
def clean():
    return _run()


def test_every_end_to_end_metric_with_its_unit(clean):
    env, result = clean
    _assert_named(result, SPEC["end_to_end"])
    assert result["failed"] == 0 and result["correct"] is True
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert {"git_revision", "numpy", "blas", "nproc", "blas_threads",
            "seed"} <= set(env["env"])


def test_every_per_layer_metric_when_traced():
    _, result = _run(trace=1)
    _assert_named(result, SPEC["per_layer"])
    assert result["metrics"]["trace.cli_coverage"]["value"] >= 0.95


def test_corrupt_bundle_counts_one_failed_operation(clean):
    _, base = clean
    _, corrupt = _run("--corrupt-bundle")
    assert corrupt["correct"] is False
    assert corrupt["failed"] == base["failed"] + 1
    assert corrupt["attempted"] == base["attempted"] + 1
