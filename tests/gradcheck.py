"""Central finite-difference check of tape gradients, for the tests.

The objective under test runs twice per coordinate on plain arrays, where
every op evaluates its forward alone, and once on a tape for the analytic
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from taskswitch.autodiff import _np, value_and_grad


@dataclass
class FdReport:
    """Central finite-difference cross-check of tape gradients."""

    analytic: dict[str, np.ndarray]
    numeric: dict[str, np.ndarray]
    rel_err: dict[str, np.ndarray]
    frac_within_tol: float
    max_rel_err: float
    tol: float
    excluded: dict[str, np.ndarray] = field(default_factory=dict)


def fd_check(objective, leaves: dict[str, np.ndarray], h: float = 1e-5,
             tol: float = 1e-4, exclude: dict[str, np.ndarray] | None = None,
             ) -> FdReport:
    """Compare tape gradients of objective(leaves) against central differences.

    objective must accept a mapping name -> Var (tape mode) or name -> array
    (plain mode) and return the scalar objective. `exclude` marks coordinates
    (e.g. straight-through quantizer inputs) left out of the pass fraction.
    """
    leaves = {k: np.asarray(v, dtype=np.float64) for k, v in leaves.items()}
    _, analytic = value_and_grad(objective, leaves)

    def eval_at(vals: dict[str, np.ndarray]) -> float:
        return float(np.asarray(_np(objective(vals))))

    numeric = {}
    for name, base in leaves.items():
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        for i in range(flat.size):
            bumped = dict(leaves)
            up = base.copy().reshape(-1)
            up[i] += h
            bumped[name] = up.reshape(base.shape)
            f_up = eval_at(bumped)
            down = base.copy().reshape(-1)
            down[i] -= h
            bumped[name] = down.reshape(base.shape)
            f_down = eval_at(bumped)
            g.reshape(-1)[i] = (f_up - f_down) / (2.0 * h)
        numeric[name] = g

    rel_err = {}
    n_ok = 0
    n_all = 0
    worst = 0.0
    excluded = dict(exclude or {})
    for name in leaves:
        ga, gn = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
        err = np.abs(ga - gn) / denom
        rel_err[name] = err
        keep = ~excluded[name].astype(bool) if name in excluded \
            else np.ones_like(err, dtype=bool)
        if np.any(keep):
            n_ok += int(np.sum(err[keep] <= tol))
            n_all += int(np.sum(keep))
            worst = max(worst, float(err[keep].max()))
    frac = n_ok / n_all if n_all else 1.0
    return FdReport(analytic, numeric, rel_err, frac, worst, tol, excluded)
