"""Acceptance gate: eleven end-to-end checks over the whole package.

Each test evaluates one numbered criterion, prints a single
``ACCEPTANCE nn PASS|FAIL <name> [detail]`` line straight to the terminal
(bypassing capture so the verdicts are visible in any run), and then
asserts. Criteria 8 to 11 run on the shared session pipeline fixture.
"""

import math
import time

import numpy as np

from taskswitch import autodiff as ad
from taskswitch.bitwidth import CANDIDATE_WIDTHS, QuantSpec, quantize
from taskswitch.codec import (NOMINAL_HEADER_BITS, CompressedModule,
                              CorruptStreamError, choose_format, decode, encode, encode_dense,
                              encode_indep, expected_bits, indep_bits,
                              index_bits, optimal_group)
from taskswitch.losses import DEFAULT_LAMBDA, reference_side
from taskswitch.merging import ReferenceIndex, knn_weights
from taskswitch.model import MlpSpec, features, init_params
from taskswitch.switch import build_switch
from taskswitch.training import (INIT_SCALE_LOGIT, StackedModules,
                                 TrainConfig, make_objective,
                                 reference_outputs, train)
from taskswitch.vectors import TaskVector, add, signed_bounds
from gradcheck import fd_check
from lgs_reference import (BitLogits, GateParams, map_threshold,
                           mixed_quantize, select_bitwidth, soft_gate)


def _report(capsys, num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# --- 1: grouped-format size law ---------------------------------------------

SIZE_LAW_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98)


def test_01_size_law(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    z_scores = []
    exact = True
    for _ in range(1000):
        n = int(1 << rng.integers(10, 17))
        alpha = SIZE_LAW_ALPHAS[rng.integers(len(SIZE_LAW_ALPHAS))]
        b = int(rng.integers(1, 9))
        c = optimal_group(n, alpha)
        keep = rng.random(n) < (1.0 - alpha)
        idx = rng.integers(1 << b, size=n)
        mod = CompressedModule(n, np.flatnonzero(keep), idx[keep], b,
                               1.0, 1.0, 1.0)
        enc = encode(mod, group_size=c)
        nnz = mod.nnz
        k = index_bits(c)
        exact &= enc.payload_bits == n // c + nnz * (k + b + 1)
        measured = NOMINAL_HEADER_BITS + enc.payload_bits
        # nnz ~ Binomial(n, 1-alpha), so one measurement has standard
        # deviation (k+b+1) * sqrt(n alpha (1-alpha)) around expected_bits.
        se = (k + b + 1) * math.sqrt(n * alpha * (1.0 - alpha))
        z_scores.append((measured - expected_bits(n, c, alpha, b)) / se)
    z_mean = float(np.mean(z_scores))
    elapsed = time.monotonic() - t0
    bound = 3.0 / math.sqrt(len(z_scores))
    ok = exact and abs(z_mean) <= bound and elapsed < 30.0
    _report(capsys, 1, "size-law", ok,
            f"exact={exact} mean-z={z_mean:+.4f} bound={bound:.4f} "
            f"{elapsed:.1f}s")


# --- 2: grouped vs independent storage --------------------------------------

def test_02_storage_crossover(capsys):
    a_grid = (0.6, 0.7, 0.8, 0.9, 0.95, 0.98)
    n_grid = (1 << 10, 1 << 12, 1 << 14, 1 << 16)
    b_grid = (1, 2, 4, 8)
    gaps = np.empty((len(a_grid), len(n_grid), len(b_grid)))
    for ia, alpha in enumerate(a_grid):
        for i_n, n in enumerate(n_grid):
            c = optimal_group(n, alpha)
            for ib, b in enumerate(b_grid):
                gaps[ia, i_n, ib] = (indep_bits(n, b)
                                     - expected_bits(n, c, alpha, b))
    monotone = (np.all(np.diff(gaps, axis=0) > 0)
                and np.all(np.diff(gaps, axis=1) > 0)
                and np.all(np.diff(gaps, axis=2) > 0))

    rng = np.random.default_rng(102)

    def measured(n, alpha, b):
        c = optimal_group(n, alpha)
        keep = rng.random(n) < (1.0 - alpha)
        idx = rng.integers(1 << b, size=n)
        enc = encode(CompressedModule(n, np.flatnonzero(keep), idx[keep], b,
                                      1.0, 1.0, 1.0), group_size=c)
        return NOMINAL_HEADER_BITS + enc.payload_bits

    below = all(expected_bits(n, optimal_group(n, 0.6), 0.6, b)
                < indep_bits(n, b)
                and measured(n, 0.6, b) < indep_bits(n, b)
                for n in n_grid for b in b_grid)

    n, alpha, b = 1 << 16, 0.98, 1
    exp_ratio = (expected_bits(n, optimal_group(n, alpha), alpha, b)
                 / indep_bits(n, b))
    meas_ratio = measured(n, alpha, b) / indep_bits(n, b)
    ok = monotone and below and exp_ratio < 0.125 and meas_ratio < 0.125
    _report(capsys, 2, "storage-crossover", ok,
            f"monotone={monotone} below-indep={below} "
            f"ratio@(2^16,0.98,1)={meas_ratio:.4f}")


# --- 3: group size optimality -----------------------------------------------

def test_03_group_optimality(capsys):
    rng = np.random.default_rng(103)
    ok = True
    for trial in range(500):
        n = (int(rng.integers(1, 65)) if trial % 3 == 0
             else int(rng.integers(1, 1 << 17)))
        alpha = float(rng.random())
        best_c, best_cost = None, math.inf
        for c in range(1, min(n, 256) + 1):
            if n % c:
                continue
            cost = expected_bits(n, c, alpha, 1)
            if cost < best_cost:
                best_c, best_cost = c, cost
        ok &= optimal_group(n, alpha) == best_c
    _report(capsys, 3, "group-optimality", ok, "500 brute-forced pairs")


# --- 4: codec round-trip and corruption fuzz --------------------------------

FUZZ_RANGES = ((1.0, 1.0), (0.5, 1.5), (2.0, 0.5), (0.0, 1.0), (1.0, 0.0))
FUZZ_SCALES = (0.5, 1.0, 1.5, 2.0, 3.0)


def test_04_codec_fuzz(capsys):
    rng = np.random.default_rng(104)
    pool = []
    round_ok = True
    for trial in range(100_000):
        u = rng.random()
        if u < 0.8:
            n = int(rng.integers(1, 49))
        elif u < 0.95:
            n = int(rng.integers(49, 513))
        else:
            n = int(rng.integers(513, 4097))
        scale = FUZZ_SCALES[rng.integers(len(FUZZ_SCALES))]
        kind = trial % 4
        if kind == 3:
            values = rng.standard_normal(n).astype(np.float32) \
                .astype(np.float64)
            enc = encode_dense(values, scale)
            dec = decode(enc.data)
            same = np.array_equal(dec.values, values)
        else:
            b = CANDIDATE_WIDTHS[rng.integers(4)]
            rn, rp = FUZZ_RANGES[rng.integers(len(FUZZ_RANGES))]
            keep = rng.random(n) < rng.uniform(0.05, 0.95)
            idx = rng.integers(1 << b, size=n)
            mod = CompressedModule(n, np.flatnonzero(keep), idx[keep], b,
                                   rn, rp, scale)
            enc = (encode, encode_indep, choose_format)[kind](mod)
            dec = decode(enc.data)
            same = (np.array_equal(dec.module.support, mod.support)
                    and np.array_equal(dec.module.bins, mod.bins)
                    and (dec.header.bit_width, dec.header.range_neg,
                         dec.header.range_pos) == (b, rn, rp))
        round_ok &= (same and dec.header == enc.header
                     and dec.header.scale == float(np.float32(scale))
                     and dec.header.count == n)
        if not round_ok:
            break
        if len(pool) < 150 and trial % 11 == 0:
            pool.append(enc.data)

    decoded = raised = 0
    mut_ok = round_ok
    if mut_ok:
        for _ in range(10_000):
            data = bytearray(pool[rng.integers(len(pool))])
            op = rng.random()
            if op < 0.8:
                for _ in range(int(rng.integers(1, 4))):
                    data[rng.integers(len(data))] ^= 1 << rng.integers(8)
            elif op < 0.9 and len(data) > 1:
                del data[int(rng.integers(len(data))):]
            else:
                data += bytes(rng.integers(0, 256, size=3, dtype=np.uint8))
            try:
                decode(bytes(data))
                decoded += 1
            except CorruptStreamError:
                raised += 1
            except Exception:   # anything else is a crash
                mut_ok = False
                break
    ok = round_ok and mut_ok
    _report(capsys, 4, "codec-fuzz", ok,
            f"round-trip={round_ok} mutations: {decoded} decoded, "
            f"{raised} rejected")


# --- 5: binary switch norm and storage --------------------------------------

def test_05_switch_fidelity(capsys):
    rng = np.random.default_rng(105)
    norm_ok = storage_ok = True
    worst_rel = 0.0
    worst_ratio = math.inf
    for _ in range(1000):
        n = int(rng.choice((1024, 2048, 4096)))
        tau = rng.standard_normal(n)
        tau[rng.random(n) < 0.1] = 0.0
        sw = build_switch(TaskVector("t", [("m", tau)]), alpha=0.9)
        mod = sw.modules[0][1]
        nnz = mod.nnz
        kept_norm = float(np.linalg.norm(tau[mod.support]))
        rel = abs(mod.scale * math.sqrt(nnz) - kept_norm) / kept_norm
        worst_rel = max(worst_rel, rel)
        norm_ok &= rel <= 1e-10
        bits = sum(e.file_bits for e in sw.to_streams())
        worst_ratio = min(worst_ratio, 32 * n / bits)
        storage_ok &= bits * 16 <= 32 * n
    ok = norm_ok and storage_ok
    _report(capsys, 5, "switch-fidelity", ok,
            f"max-rel-norm-err={worst_rel:.2e} "
            f"min-compression={worst_ratio:.1f}x")


# --- 6: objective gradients vs finite differences ---------------------------

def test_06_gradient_check(capsys):
    t0 = time.monotonic()
    mspec = MlpSpec((3, 5, 2))
    ok = True
    worst_frac = 1.0
    no_exclusions = True
    for cfg in range(20):
        rng = np.random.default_rng(600 + cfg)
        base = init_params(mspec, seed=cfg)
        tv = TaskVector("t", [(n, 0.5 * rng.standard_normal(v.size))
                              for n, v in base.modules])
        finetuned = add(base, tv, 1.0)
        kind = ("kl", "mse", "cka")[cfg % 3]
        exemplars = rng.standard_normal((8, 3))
        ref = reference_outputs(mspec, finetuned, exemplars, kind)
        rho = 0.9 ** int(rng.integers(0, 6))
        omega = 0.9 ** int(rng.integers(0, 6))
        obj = make_objective(mspec, StackedModules.build(mspec, base, tv),
                             reference_side(kind, ref, 4.0), exemplars, kind,
                             DEFAULT_LAMBDA[kind], 4.0, rho, omega)
        n_mod = len(tv.modules)
        leaves = {"gates": np.empty((3, n_mod)), "bits": np.empty((n_mod, 4))}
        for m in range(n_mod):
            leaves["gates"][:, m] = [
                0.5 * rng.standard_normal(), 0.5 * rng.standard_normal(),
                INIT_SCALE_LOGIT + 0.3 * rng.standard_normal()]
            leaves["bits"][m] = 0.5 * rng.standard_normal(4)
        # The straight-through estimator sits on the value path only; the
        # trained leaves are gate and width logits, whose gradients flow
        # through sigmoid and softmax terms. No coordinate needs excluding.
        report = fd_check(lambda lv: obj(lv)[0], leaves, h=1e-5, tol=1e-4)
        worst_frac = min(worst_frac, report.frac_within_tol)
        ok &= report.frac_within_tol >= 0.95
        no_exclusions &= not report.excluded
    elapsed = time.monotonic() - t0
    ok = ok and no_exclusions and elapsed < 60.0
    _report(capsys, 6, "gradient-check", ok,
            f"min-pass-frac={worst_frac:.3f} excluded=0 {elapsed:.1f}s")


# --- 7: temperature limits --------------------------------------------------

def test_07_temperature_limits(capsys):
    rng = np.random.default_rng(107)
    gate_ok = True
    compared = 0
    for _ in range(40):
        v = rng.standard_normal(150)
        v[rng.random(150) < 0.15] = 0.0
        gp = GateParams(float(rng.standard_normal()),
                        float(rng.standard_normal()),
                        float(rng.standard_normal()))
        bounds = signed_bounds(v)
        soft = np.asarray(soft_gate(v, gp, 1e-6).soft_mask)
        ideal = np.zeros(v.size, dtype=bool)
        dist = np.full(v.size, np.inf)
        r_max = 0.0
        if bounds.has_pos:
            t_pos, r_pos = map_threshold(gp.threshold_pos, bounds, "+")
            ideal |= v > t_pos
            dist = np.minimum(dist, np.abs(v - t_pos))
            r_max = max(r_max, r_pos)
        if bounds.has_neg:
            t_neg, r_neg = map_threshold(gp.threshold_neg, bounds, "-")
            ideal |= v < -t_neg
            dist = np.minimum(dist, np.abs(v + t_neg))
            r_max = max(r_max, r_neg)
        eligible = dist >= 0.01 * r_max
        compared += int(eligible.sum())
        gate_ok &= bool(np.all((soft[eligible] > 0.5) == ideal[eligible]))

    quant_ok = True
    worst = 0.0
    for _ in range(40):
        v = rng.standard_normal(120)
        qspecs = [QuantSpec.from_values(v, b) for b in CANDIDATE_WIDTHS]
        logits = rng.standard_normal(4)
        blended = np.asarray(ad._np(
            mixed_quantize(v, BitLogits(logits, 1e-6), qspecs)))
        width = select_bitwidth(BitLogits(logits))
        selected = quantize(v, qspecs[CANDIDATE_WIDTHS.index(width)])
        gap = float(np.max(np.abs(blended - selected)))
        worst = max(worst, gap)
        quant_ok &= gap <= 1e-6
    ok = gate_ok and quant_ok
    _report(capsys, 7, "temperature-limits", ok,
            f"mask-agreement on {compared} coords, "
            f"max-blend-gap={worst:.2e}")


# --- 8: desk-scale compression quality --------------------------------------

def test_08_compression_quality(capsys, pipeline):
    p = pipeline
    gaps = [ft - comp for ft, comp in zip(p.ft_accs, p.comp_accs)]
    sparsity = float(np.mean([r.compressed.sparsity() for r in p.results]))
    encoded = sum(e.file_bits for r in p.results
                  for e in r.compressed.to_streams())
    dense = 32 * p.base.total_size() * len(p.results)

    cfg = TrainConfig(loss_kind="kl", preserve_weight=0.3, seed=0)
    rerun = train(p.vectors[0], p.base, p.finetuned[0], p.exemplars(0),
                  p.mspec, cfg)
    deterministic = all(
        a.bit_width == b.bit_width and a.scale == b.scale
        and np.array_equal(a.support, b.support)
        and np.array_equal(a.bins, b.bins) and e1.data == e2.data
        for (_, a), (_, b), e1, e2 in zip(
            p.results[0].compressed.modules, rerun.compressed.modules,
            p.results[0].compressed.to_streams(),
            rerun.compressed.to_streams()))
    elapsed = p.times["finetune"] + p.times["compress"]
    ok = (max(gaps) <= 0.02 and sparsity >= 0.90
          and encoded * 10 <= dense and deterministic and elapsed < 300.0)
    _report(capsys, 8, "compression-quality", ok,
            f"max-acc-gap={max(gaps):.4f} sparsity={sparsity:.4f} "
            f"encoded/dense={encoded / dense:.4f} "
            f"deterministic={deterministic} {elapsed:.0f}s")


# --- 9: dynamic merging beats static baselines ------------------------------

def test_09_merging_quality(capsys, pipeline):
    p = pipeline
    merged = float(np.mean(p.merged_accs))
    ft = float(np.mean(p.ft_accs))
    wa = float(np.mean(p.wa_accs))
    ta = float(np.mean(p.ta_accs))
    ok = (merged >= ft - 0.03 and merged > wa and merged > ta
          and p.times["merge"] < 60.0)
    _report(capsys, 9, "merging-quality", ok,
            f"merged={merged:.4f} finetuned={ft:.4f} weight-avg={wa:.4f} "
            f"task-arith={ta:.4f} {p.times['merge']:.1f}s")


# --- 10: retrieval weight properties ----------------------------------------

def _oracle_weights(index, feats, n_neighbors):
    """Independent per-row reimplementation of the retrieval weights."""
    pf = feats @ index.projection.T
    pc = index.centers @ index.projection.T
    f2 = np.sum(pf * pf, axis=1, keepdims=True)
    c2 = np.sum(pc * pc, axis=1, keepdims=True)
    d = np.sqrt(np.maximum((f2 + c2.T) + (pf @ pc.T) * -2.0, 1e-30))
    out = np.zeros((feats.shape[0], index.n_tasks))
    for i in range(feats.shape[0]):
        order = sorted(range(index.centers.shape[0]),
                       key=lambda j: (d[i, j], j))[:n_neighbors]
        counts = [0] * index.n_tasks
        for j in order:
            counts[int(index.labels[j])] += 1
        row = [k / float(n_neighbors) for k in counts]
        last = max(k for k in range(index.n_tasks) if counts[k])
        before = 0.0
        for t in range(last):
            before += row[t]
        row[last] = 1.0 - before if last else 1.0
        out[i] = row
    return out


def test_10_retrieval_properties(capsys, pipeline):
    p = pipeline
    index = p.metric.index

    sums_ok = True
    task_feats = []
    for t in p.tasks:
        feats = features(p.mspec, p.base, t.test_x)
        task_feats.append(feats)
        w = knn_weights(index, feats, n_neighbors=10)
        sums_ok &= bool(np.all(np.sum(w, axis=1) == 1.0))

    rng = np.random.default_rng(110)
    oracle_ok = True
    for _ in range(1000):
        n_refs = int(rng.integers(3, 13))
        e = int(rng.integers(2, 6))
        n_tasks = int(rng.integers(1, 4))
        labels = rng.integers(n_tasks, size=n_refs).astype(np.int64)
        labels[0] = 0
        geo = ReferenceIndex([f"t{k}" for k in range(n_tasks)],
                             rng.standard_normal((n_refs, e)), labels,
                             rng.standard_normal((int(rng.integers(1, 4)), e)))
        feats = rng.standard_normal((int(rng.integers(1, 5)), e))
        c = int(rng.integers(1, n_refs + 1))
        w = knn_weights(geo, feats, n_neighbors=c)
        oracle_ok &= np.array_equal(w, _oracle_weights(geo, feats, c))
        sums_ok &= bool(np.all(np.sum(w, axis=1) == 1.0))

    losses = p.metric.losses
    decreasing = all(losses[i + 1] < losses[i] for i in range(10))

    scale_ok = True
    w0 = knn_weights(index, task_feats[0], n_neighbors=10)
    for s in (1e-3, 7.3, 1e3):
        scaled = ReferenceIndex(index.task_ids, index.centers, index.labels,
                                s * index.projection)
        scale_ok &= np.array_equal(
            knn_weights(scaled, task_feats[0], n_neighbors=10), w0)

    ok = sums_ok and oracle_ok and decreasing and scale_ok
    _report(capsys, 10, "retrieval-properties", ok,
            f"sums-exact={sums_ok} oracle-match={oracle_ok} "
            f"loss-decreasing={decreasing} scale-invariant={scale_ok}")


# --- 11: preservation weight vs sparsity ------------------------------------

def test_11_lambda_direction(capsys, pipeline):
    p = pipeline
    lams = (0.0, 0.1, 0.5, 0.9)
    sps = []
    for lam in lams:
        cfg = TrainConfig(loss_kind="kl", preserve_weight=lam, seed=0)
        res = train(p.vectors[0], p.base, p.finetuned[0], p.exemplars(0),
                    p.mspec, cfg)
        sps.append(res.compressed.sparsity())
    trend = " ".join(f"lam={l}:{s:.4f}" for l, s in zip(lams, sps))
    ok = sps[0] > sps[-1]
    _report(capsys, 11, "lambda-direction", ok, trend)
