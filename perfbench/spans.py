"""The run's clock, span shims installed from outside the package, and the
per-layer figures.

A shim replaces a public function at the name its caller looks it up under
(for example ``taskswitch.cli.train`` or ``taskswitch.container.decode_at``)
with a wrapper that records one span per call: name, start, end, parent
span, the benchmark section it ran in, whether it raised, and a few call
attributes (rows, elements, bytes). Spans are recorded only inside measured
windows, so the benchmark's own correctness checks leave no spans. Nothing
in ``src/`` changes; ``Tracer.uninstall`` restores every original.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
from time import perf_counter

import numpy as np

LAYERS = ("cli", "harness", "training", "autodiff", "model", "merging",
          "codec", "container")

# span record fields
NAME, START, END, PARENT, SECTION, FAILED, ATTRS = range(7)

# Calibration. How a window is scaled to the nominal host speed:
SAMPLED = "sampled"      # by probes taken inside it (long windows)
COMPUTE = "compute"      # by the compute probes around it (serve batches)
DISPATCH = "dispatch"    # by the dispatch probes around it (single rows)

# The compute probe: fixed interpreter and small-array work, the mix the
# package spends its time on. The dispatch probe: many small numpy calls
# of different kinds, where a single-row request spends its time; across
# the host's speed states it tracks single-row requests and cold loads
# more closely than the compute probe, and 512-row batches less. The
# nominal figures are their median times on the host the baseline was
# taken on (2 vCPU Xeon at 2.0 GHz, KVM).
PROBE_NOMINAL_S = 3.0e-3
DISPATCH_NOMINAL_S = 1.8e-3
_PROBE_A = np.linspace(-1.0, 1.0, 8 * 16).reshape(8, 16)
_PROBE_B = np.linspace(-0.5, 0.5, 16 * 32).reshape(16, 32)
_PROBE_V = np.linspace(0.0, 1.0, 64)
_PROBE_I = (np.arange(64) * 37) % 64

# In-window samples: the compute probe at 1/SAMPLE_SHARE of its size, run
# twice by a SIGALRM timer every SAMPLE_PERIOD_S (the first SAMPLE_FIRST_S
# after the window opens, so the shortest CLI step still gets a few) while
# a sampled window is open. Only the second run is the sample: the first
# refills the caches the measured code evicted, and a cold run reads the
# host's speed states less than half as well. SAMPLE_NOMINAL_S is the
# sample's median on the baseline host.
SAMPLE_SHARE = 20
SAMPLE_FIRST_S = 0.005
SAMPLE_PERIOD_S = 0.02
SAMPLE_NOMINAL_S = 1.5e-4


def probe(share: int = 1) -> float:
    """Seconds the compute probe, or 1/share of it, takes right now."""
    start = perf_counter()
    acc = 0
    for i in range(20000 // share):
        acc += i * i
    for _ in range(200 // share):
        np.tanh(_PROBE_A @ _PROBE_B).sum(axis=1)
    return perf_counter() - start


def dispatch_probe() -> float:
    """Seconds the dispatch probe takes right now."""
    v, idx = _PROBE_V, _PROBE_I
    start = perf_counter()
    acc = 0.0
    for _ in range(40):
        order = np.argsort(v[idx])
        kept = np.concatenate([v[order[:8]], v[np.unique(idx[:20])]])
        kept = np.where(kept > 0.3, kept, 0.0)
        h = np.einsum("ij,jk->ik", _PROBE_A, _PROBE_B)
        h = np.maximum(h, 0.0).astype(np.float32).mean(axis=0)
        acc += (np.argmax(h) + np.bincount(idx[:16], minlength=64).sum()
                + np.searchsorted(v, 0.5) + kept.sum())
    return perf_counter() - start


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# attribute extractors: (args, kwargs, result) -> dict, run after the call
def _cli_attrs(args, kwargs, out):
    return {"command": args[0][0]}


def _rows_attrs(args, kwargs, out):
    # merged_forward(spec, base, vectors, index, x), knn_weights(index, feats)
    x = args[4] if len(args) > 4 else args[1]
    return {"rows": len(x)}


def _encode_attrs(args, kwargs, out):
    return {"elems": out.header.count, "fmt": out.header.fmt.name}


def _decode_attrs(args, kwargs, out):
    return {"elems": out.header.count}


def _file_attrs(args, kwargs, out):
    return {"bytes": _path_bytes(args[0])}


def _backward_attrs(args, kwargs, out):
    return {"nodes": len(args[0]._nodes)}


def _shim_table():
    """(owner, attribute, span name, attribute extractor) for every shim."""
    from taskswitch import (autodiff, cli, container, harness, merging,
                            training)
    table = [(cli, "main", "cli", _cli_attrs)]
    for name in ("fine_tune", "gen_tasks", "base_dataset", "read_dataset",
                 "write_dataset", "write_tasks"):
        table.append((cli, name, "harness." + name, None))
    table.append((harness, "write_dataset", "harness.write_dataset", None))
    table += [
        (cli, "train", "training.train", None),
        (cli, "apply_compressed", "training.apply_compressed", None),
        (training.CompressedTaskVector, "to_streams", "training.to_streams",
         None),
        (autodiff.Tape, "backward", "autodiff.backward", _backward_attrs),
        (cli, "accuracy", "model.accuracy", None),
        (training, "forward", "model.forward", None),
        (harness, "forward", "model.forward", None),
        (merging, "forward", "model.forward", None),
        (merging, "features", "model.features", None),
        (training, "choose_format", "codec.choose_format", _encode_attrs),
        (container, "encode_dense", "codec.encode_dense", _encode_attrs),
        (container, "decode_at", "codec.decode_at", _decode_attrs),
        (merging, "build_index", "merging.build_index", None),
        (merging, "train_metric", "merging.train_metric", None),
        (merging, "merged_forward", "merging.merged_forward", _rows_attrs),
        (merging, "knn_weights", "merging.knn_weights", _rows_attrs),
        (merging, "materialize", "merging.materialize", None),
        (merging, "save_index", "merging.save_index", None),
        (merging, "load_index", "merging.load_index", None),
    ]
    for owner in (cli, container):
        for name in ("save_bundle", "save_params", "load_bundle",
                     "load_params"):
            table.append((owner, name, "container." + name, _file_attrs))
    return table


class Tracer:
    """The run's clock: measured windows, calibration probes and spans.

    Spans are recorded only inside ``window`` blocks and only once
    ``install`` has put the shims in place; without it the tracer still
    times windows, which is how an untraced run is timed the same way as a
    traced one.

    The host's speed switches between states up to 1.5x apart, often
    several times a second, so each window is also reported calibrated:
    its seconds at the nominal probe speed. A ``SAMPLED`` window (one that
    lasts tens of milliseconds or more) is scaled by the samples taken
    inside it, with their own time taken out; the speed can change in the
    middle of a 3 s compress step, which probes outside the window miss.
    Any other window is scaled by the median of the compute or dispatch
    probes around it (``calibrate`` takes one of each before every unit of
    work), so no signal lands inside a millisecond-long request and moves
    its latency.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.windows: list[_Window] = []
        self.probes: list[float] = []
        self.dispatch_probes: list[float] = []
        self.sample_at: list[float] = []     # start of each sample
        self.sample_s: list[float] = []      # its seconds
        self.sample_cost: list[float] = []   # the handler's seconds
        self.section = ""
        self.recording = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        def shim(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.section, False, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs_fn is not None:
                rec[ATTRS] = attrs_fn(args, kwargs, out)
            if name == "cli" and out != 0:   # main reports errors by status
                rec[FAILED] = True
            return out

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", name)
        return shim

    def install(self) -> None:
        for owner, attr, name, attrs_fn in _shim_table():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def window(self, section: str, calibration: str) -> "_Window":
        return _Window(self, section, calibration)

    def calibrate(self) -> None:
        self.probes.append(probe())
        self.dispatch_probes.append(dispatch_probe())

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        probe(SAMPLE_SHARE)
        self.sample_s.append(probe(SAMPLE_SHARE))
        self.sample_at.append(start)
        self.sample_cost.append(perf_counter() - start)

    def _arm(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_FIRST_S, SAMPLE_PERIOD_S)

    @staticmethod
    def _disarm() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def calibrated(self, win: "_Window") -> float:
        """The window's seconds at the nominal probe speed."""
        if win.calibration == SAMPLED:
            lo = bisect.bisect_left(self.sample_at, win.start)
            hi = bisect.bisect_left(self.sample_at, win.start + win.seconds)
            inside = self.sample_s[lo:hi]
            if inside:
                return ((win.seconds - sum(self.sample_cost[lo:hi]))
                        * SAMPLE_NOMINAL_S / statistics.median(inside))
        probes, nominal = self.probes, PROBE_NOMINAL_S
        if win.calibration == DISPATCH:
            probes, nominal = self.dispatch_probes, DISPATCH_NOMINAL_S
        around = probes[max(win.probe - 1, 0):win.probe + 3]
        if not around:
            return win.seconds
        return win.seconds * nominal / statistics.median(around)


class _Window:
    """A measured region: spans record inside it and its wall time counts."""

    def __init__(self, tracer: Tracer, section: str, calibration: str):
        self.tracer = tracer
        self.section = section
        self.calibration = calibration

    def __enter__(self):
        self.tracer.section = self.section
        self.tracer.recording = True
        if self.calibration == SAMPLED:
            self.tracer._arm()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self.start
        if self.calibration == SAMPLED:
            self.tracer._disarm()
        self.probe = len(self.tracer.probes) - 1   # the last probe before
        self.tracer.recording = False
        self.tracer.windows.append(self)
        return False


def _mean(values, default=0.0):
    return statistics.fmean(values) if values else default


def layer_metrics(tracer: Tracer, walkthroughs: int) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    Calls, self time and failures count every span; the other figures use
    calls that returned. ``walkthroughs`` is the number of timed CLI
    walkthroughs, so the ``cli.*`` step totals come out per walkthrough.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]

    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [i for i, r in enumerate(spans)
                if r[NAME].split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(
            spans[i][END] - spans[i][START] - child[i] for i in mine)
        out[f"{layer}.failures"] = sum(1 for i in mine if spans[i][FAILED])

    def dur(rec):
        return rec[END] - rec[START]

    def under(rec, name):
        p = rec[PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def named(name, section=None):
        return [r for r in spans if r[NAME] == name and not r[FAILED]
                and (section is None or r[SECTION] == section)]

    def ms(recs):
        return 1e3 * _mean([dur(r) for r in recs])

    # cli: seconds per walkthrough in each step; gen-tasks per call
    cli = named("cli")
    for command in ("fine-tune", "compress", "build-index", "train-metric",
                    "merge-eval"):
        total = sum(dur(r) for r in cli if r[ATTRS]["command"] == command)
        out[f"cli.{command}_s"] = total / max(walkthroughs, 1)
    gen = [dur(r) for r in cli if r[ATTRS]["command"] == "gen-tasks"]
    out["cli.gen-tasks_s"] = statistics.median(gen) if gen else 0.0

    # autodiff and training: compress steps only
    steps = [r for r in named("autodiff.backward")
             if under(r, "training.train")]
    out["autodiff.nodes_per_step"] = _mean([r[ATTRS]["nodes"] for r in steps])
    out["autodiff.backward_ms"] = ms(steps)
    out["training.step_ms"] = 1e3 * sum(
        dur(r) for r in named("training.train")) / max(len(steps), 1)

    # harness: CSV time per outermost read or write call
    out["harness.fine_tune_s"] = ms(named("harness.fine_tune")) / 1e3
    csv_io = ("harness.read_dataset", "harness.write_dataset",
              "harness.write_tasks")
    out["harness.csv_io_ms"] = ms([
        r for r in spans if r[NAME] in csv_io and not r[FAILED]
        and not any(under(r, name) for name in csv_io)])

    # merging: offline steps per call, serving figures from the serve section
    out["merging.train_metric_s"] = ms(named("merging.train_metric")) / 1e3
    out["merging.build_index_s"] = ms(named("merging.build_index")) / 1e3
    knn = named("merging.knn_weights", "serve")
    out["merging.knn_weights_us_per_row"] = 1e6 * sum(
        dur(r) for r in knn) / max(sum(r[ATTRS]["rows"] for r in knn), 1)
    batches = {id(r) for r in named("merging.merged_forward", "serve")
               if r[ATTRS]["rows"] > 1}
    mats = named("merging.materialize", "serve")
    out["merging.materialize_calls_per_batch"] = sum(
        1 for r in mats if id(spans[r[PARENT]]) in batches) / max(
        len(batches), 1)
    out["merging.materialize_ms"] = ms(mats)

    # model: calls made while serving
    out["model.forward_ms"] = ms(named("model.forward", "serve"))
    out["model.features_ms"] = ms(named("model.features", "serve"))

    # codec: per call for modules of at most 4096 elements, per element
    # above that; dense encodes (parameter files) per element at any size
    enc = named("codec.choose_format")
    dec = named("codec.decode_at")
    small = 4096

    def ns_per_elem(recs):
        elems = sum(r[ATTRS]["elems"] for r in recs)
        return 1e9 * sum(dur(r) for r in recs) / max(elems, 1)

    out["codec.encode_small_us"] = 1e3 * ms(
        [r for r in enc if r[ATTRS]["elems"] <= small])
    out["codec.decode_small_us"] = 1e3 * ms(
        [r for r in dec if r[ATTRS]["elems"] <= small])
    out["codec.encode_large_ns_per_elem"] = ns_per_elem(
        [r for r in enc if r[ATTRS]["elems"] > small])
    out["codec.decode_large_ns_per_elem"] = ns_per_elem(
        [r for r in dec if r[ATTRS]["elems"] > small])
    out["codec.encode_dense_ns_per_elem"] = ns_per_elem(
        named("codec.encode_dense"))
    out["codec.format_counts"] = len(enc)
    for fmt in ("GROUPED", "INDEP", "DENSE"):
        out[f"codec.format_counts.{fmt}"] = sum(
            1 for r in enc if r[ATTRS]["fmt"] == fmt)

    # container: per call in the bundle-io section, bytes over the whole run
    for op in ("save_bundle", "load_bundle", "save_params", "load_params"):
        out[f"container.{op}_ms"] = ms(named(f"container.{op}", "bundle-io"))
    for key, prefix in (("bytes_written", "container.save"),
                        ("bytes_read", "container.load")):
        out[f"container.{key}"] = sum(
            r[ATTRS]["bytes"] for r in spans
            if r[NAME].startswith(prefix) and not r[FAILED])

    # coverage: top-level spans against the measured wall time
    wall = sum(w.seconds for w in tracer.windows)
    top = sum(dur(r) for r in spans if r[PARENT] < 0)
    out["trace.uncovered_share"] = 1.0 - top / wall if wall else 0.0
    walk_wall = sum(w.seconds for w in tracer.windows
                    if w.section == "pipeline")
    walk_cli = sum(dur(r) for r in cli if r[SECTION] == "pipeline")
    out["trace.cli_coverage"] = walk_cli / walk_wall if walk_wall else 0.0
    return out
