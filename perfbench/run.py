"""taskswitch benchmark: CLI pipeline, merge serving and bundle I/O.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline|serve|bundle-io \\
        --seed N --seconds S --trace 0|1 [--smoke] [--corrupt-bundle]

Every run measures all three sections, interleaved unit by unit, so every
end-to-end metric is printed; the workload picks the section that gets the
``--seconds`` budget and whose set-up time is reported as ``setup_s``. The
other two sections run their fixed minimum (one walkthrough; 400 serve
rounds of one batch and 20 single rows; 16 bundle-io iterations).
``--trace 1`` runs a fixed plan twice, untraced and then with span shims
installed, and prints the per-layer metrics and the tracing overhead. The
last line of standard output is the result object; the line before it
records the environment and the sample counts.

One process, one thread: BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "serve", "bundle-io")

# name -> unit for every end-to-end metric (printed with --trace 0)
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "compress_task_s": "s",
    "size_ratio": "ratio",
    "merged_acc": "ratio",
    "batch_rows_per_s": "rows/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "row_p50_ms": "ms",
    "row_p99_ms": "ms",
    "write_s": "s",
    "load_s": "s",
    "bundle_bytes": "bytes",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if ".bytes_" in name:
        return "bytes"
    for suffix, unit in (("_us_per_row", "us/row"),
                         ("_ns_per_elem", "ns/elem"), ("_ms", "ms"),
                         ("_us", "us"), ("_s", "s"), ("_share", "ratio"),
                         ("_ratio", "ratio"), ("_coverage", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small sizes, for the benchmark's own tests")
    p.add_argument("--corrupt-bundle", action="store_true",
                   help="also load a truncated .tswc (counts as failed)")
    return p.parse_args(argv)


def _import_package():
    """Import taskswitch from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "taskswitch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no taskswitch sources under {src}")
    sys.path.insert(0, str(src))
    import taskswitch
    if Path(taskswitch.__file__).resolve().parent != (src / "taskswitch"
                                                       ).resolve():
        raise SystemExit("perfbench: taskswitch imported from outside "
                         f"{src}: {taskswitch.__file__}")


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_revision": _git_revision(),
            "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "seed": seed}


def measure(workload: str, seed: int, budget: float, sizes, tracer, ops,
            work: Path, corrupt: bool):
    """One pass over the three sections, interleaved; returns the
    calibrated end-to-end values, a detail record (sample counts and the
    uncalibrated values), the number of walkthroughs and the routing top-1
    share."""
    import sections as S

    focus = {w: (budget if w == workload else 0.0) for w in WORKLOADS}
    pipeline = S.Pipeline(
        work, sizes.walkthroughs_focus if workload == "pipeline" else 1,
        sizes.gen_reps if workload == "pipeline" else 1, focus["pipeline"],
        tracer, ops)
    serve = S.Serve(pipeline, seed, sizes,
                    sizes.load_reps if workload == "serve" else 1,
                    focus["serve"], tracer, ops)
    bundle = S.BundleIo(work / "io", seed, sizes,
                        sizes.synth_reps if workload == "bundle-io" else 1,
                        focus["bundle-io"], tracer, ops, corrupt)
    S.interleave([pipeline, serve, bundle], tracer)

    setup = {"pipeline": pipeline.gens, "serve": serve.loads,
             "bundle-io": bundle.synths}[workload]

    def summarize(sec) -> dict:
        """The end-to-end values with each window's time read by ``sec``."""
        batches = [sec(w) for w in serve.batches]
        rows_ms = [1e3 * sec(w) for w in serve.rows]
        return {
            "setup_s": S.median([sec(w) for w in setup]),
            "pipeline_s": S.median([sum(sec(w) for w in walk)
                                    for walk in pipeline.walks]),
            "compress_task_s": S.median([sec(w) for w in pipeline.compress]),
            "size_ratio": S.median(pipeline.size_ratio),
            "merged_acc": S.median(pipeline.merged_acc),
            "batch_rows_per_s": sizes.batch_rows * len(batches)
            / sum(batches),
            "batch_p50_ms": 1e3 * S.median(batches),
            "batch_p90_ms": 1e3 * S.percentile(batches, 90),
            "row_p50_ms": S.median(rows_ms),
            "row_p99_ms": S.percentile(rows_ms, 99),
            "write_s": S.median([sec(w) for w in bundle.writes]),
            "load_s": S.median([sec(w) for w in bundle.reads]),
            "bundle_bytes": S.median(bundle.bundle_bytes),
        }

    detail = {
        "samples": {"setup_s": len(setup), "pipeline_s": len(pipeline.walks),
                    "compress_task_s": len(pipeline.compress),
                    "batch_ms": len(serve.batches), "row_ms": len(serve.rows),
                    "write_s": len(bundle.writes),
                    "load_s": len(bundle.reads)},
        "uncalibrated": summarize(lambda w: w.seconds),
        "probe_median_s": S.median(tracer.probes),
        "dispatch_probe_median_s": S.median(tracer.dispatch_probes),
        "sample_median_s": S.median(tracer.sample_s),
    }
    return (summarize(tracer.calibrated), detail, len(pipeline.walks),
            serve.route_top1)


def run(args) -> dict:
    import sections as S
    from spans import Tracer, layer_metrics

    sizes = S.SMOKE if args.smoke else S.FULL
    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    ops = S.Ops()
    try:
        if not args.trace:
            tracer = Tracer()
            values, detail, _, _ = measure(
                args.workload, args.seed, args.seconds, sizes, tracer, ops,
                scratch / "run", args.corrupt_bundle)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
        else:
            plain = Tracer()
            measure(args.workload, args.seed, 0.0, sizes, plain, S.Ops(),
                    scratch / "plain", False)
            tracer = Tracer()
            tracer.install()
            try:
                _, detail, walks, top1 = measure(
                    args.workload, args.seed, 0.0, sizes, tracer, ops,
                    scratch / "traced", args.corrupt_bundle)
            finally:
                tracer.uninstall()
            values = layer_metrics(tracer, walks)
            values["merging.route_top1_ratio"] = top1
            # calibrated, so a change of host speed between the two passes
            # does not read as overhead
            untraced = sum(map(plain.calibrated, plain.windows))
            traced = sum(map(tracer.calibrated, tracer.windows))
            values["trace.overhead_share"] = (traced - untraced) / untraced
            metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                       for k, v in sorted(values.items())}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for note in ops.notes:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      **detail}))
    return {"correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
