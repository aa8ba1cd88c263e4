"""The csv.writer dataset writer that harness.write_dataset replaced, kept
as the oracle its output must match byte for byte."""

import csv

import numpy as np

from taskswitch.harness import MAX_LABEL, _check_finite_rows


def write_dataset(path, x: np.ndarray, y: np.ndarray) -> None:
    """CSV x0..x{d-1},label at full precision, of rows read_dataset takes."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y)
    if x.ndim != 2 or y.shape != x.shape[:1] or y.dtype.kind not in "iu" \
            or y.size and not 0 <= y.min() <= y.max() <= MAX_LABEL:
        raise ValueError(f"{path}: need (n, d) features and n integer "
                         f"labels in [0, {MAX_LABEL}]")
    _check_finite_rows(path, x, range(2, len(y) + 2))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(x.shape[1])] + ["label"])
        for row, lab in zip(x, y):
            w.writerow([f"{v:.17g}" for v in row] + [int(lab)])
