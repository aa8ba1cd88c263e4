"""The dataset writer and reader that harness replaced, kept as oracles.

`write_dataset` is the csv.writer writer whose output harness.write_dataset
must match byte for byte. `read_dataset` is the row-loop reader that
harness.read_dataset must match: the same arrays, bit for bit, or the same
exception type and message."""

import csv

import numpy as np

from taskswitch.harness import MAX_LABEL, _check_finite_rows, read_text


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


def read_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a write_dataset CSV.

    The file must be UTF-8, and every row must have the header's width,
    finite float features and a non-negative integer label; a ValueError
    names the file and the line.
    """
    x, y, lines = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if not header or header[-1] != "label":
                raise ValueError(f"{path}: expected trailing 'label' column")
            for row in r:
                if len(row) != len(header):
                    raise ValueError(f"{path}: line {r.line_num}: {len(row)}"
                                     f" fields, the header has {len(header)}")
                try:
                    x.append([float(v) for v in row[:-1]])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {r.line_num}: "
                                     f"{exc}") from None
                label = row[-1].strip()
                if not label.isdecimal() or int(label) > MAX_LABEL:
                    raise ValueError(f"{path}: line {r.line_num}: label "
                                     f"{row[-1]!r} is not a non-negative "
                                     "integer")
                y.append(int(label))
                lines.append(r.line_num)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {r.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # the file is decoded a block at a time, so the line is found anew
        read_text(path)
        raise
    x = np.array(x, dtype=np.float64).reshape(len(y), len(header) - 1)
    _check_finite_rows(path, x, lines)
    return x, np.array(y, dtype=np.int64)
