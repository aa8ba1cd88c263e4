"""read_dataset against the row-loop reader it replaced.

The oracle is the csv.reader loop kept verbatim in
tests/dataset_reference.py. Every CSV text here starts as write_dataset
output and is then mutated: quotes, CR-only and mixed line ends, blank
lines, a BOM, spaces and tabs around fields, '1_0', Unicode digits, the
separators '\\x1c' and '\\x0b', non-finite values, NUL, ragged rows, fields
over the csv limit, long labels and non-UTF-8 bytes. read_dataset must
return what the oracle returns, bit for bit and in dtype, shape and
contiguity, or raise the same exception type with the same message.

The one intended difference is a label of over 4,300 digits, on which the
oracle's int() raises an error that names neither file nor line. The
oracle runs with Python's digit limit lifted, so it gives the located
refusal (or the value, for leading zeros) that read_dataset gives with the
limit in place.
"""

import builtins
import contextlib
import csv
import io
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dataset_reference as reference
from taskswitch import harness
from taskswitch.harness import MAX_LABEL, read_dataset, write_dataset

LIMIT = csv.field_size_limit()
DIGIT_ZEROS = (0x660, 0x6F0, 0x966, 0xFF10)  # Arabic-Indic ... fullwidth 0


@contextlib.contextmanager
def _no_digit_limit():
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:         # a Python without the limit
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _outcome(read, path):
    try:
        x, y = read(path)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return (x.tobytes(), x.dtype, x.shape, x.flags.c_contiguous,
            y.tobytes(), y.dtype, y.shape)


def _oracle(path):
    with _no_digit_limit():
        return _outcome(reference.read_dataset, path)


def _same(path):
    got = _outcome(read_dataset, path)
    assert got == _oracle(path)
    return got


def _base_text(x, y) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset(path, x, y)
        return path.read_bytes().decode("utf-8")


# -- mutations: (text, rnd) -> text, or bytes for the non-UTF-8 one --------

def _edit_field(text, rnd, fn, last=False):
    """fn applied to one field of one line (the label when last)."""
    lines = text.split("\r\n")
    i = rnd.randrange(len(lines))
    fields = lines[i].split(",")
    j = len(fields) - 1 if last else rnd.randrange(len(fields))
    fields[j] = fn(fields[j], rnd)
    lines[i] = ",".join(fields)
    return "\r\n".join(lines)


def _insert(text, rnd, piece):
    k = rnd.randrange(len(text) + 1)
    return text[:k] + piece + text[k:]


def _field(fn, last=False):
    return lambda text, rnd: _edit_field(text, rnd, fn, last)


def _digit_to_unicode(f, rnd):
    """One ASCII digit of the field written in another script."""
    spots = [k for k, c in enumerate(f) if "0" <= c <= "9"]
    if not spots:
        return f
    k = rnd.choice(spots)
    return f[:k] + chr(rnd.choice(DIGIT_ZEROS) + int(f[k])) + f[k + 1:]


def _underscore(f, rnd):
    k = f.find("1")
    return f[:k] + "1_0" + f[k + 1:] if k >= 0 else "1_0"


def _mixed_ends(text, rnd):
    parts = text.split("\r\n")
    return "".join(p + rnd.choice(("\r\n", "\n")) for p in parts[:-1]) \
        + parts[-1]


def _blank_line(text, rnd):
    ends = [k for k in range(len(text)) if text.startswith("\r\n", k)]
    k = rnd.choice(ends) + 2 if ends else 0
    return text[:k] + rnd.choice(("\r\n", "\n", "")) + text[k:]


def _header(text, rnd):
    head, sep, body = text.partition("\r\n")
    fields = head.split(",")
    return rnd.choice((
        "xlabel", '"label"', "label,", "Label", "lab el", "label ", "",
        "x0,\x00label", "x,\rlabel", "x,\x1clabel", "\ufefflabel",
        # a quoted comma: csv reads one field less than the commas
        '"' + ",".join(fields[:2]) + '",' + ",".join(fields[2:]),
        ",".join(fields + ["label"]))) + sep + body


def _non_utf8(text, rnd):
    data = text.encode("utf-8")
    k = rnd.randrange(len(data) + 1)
    return data[:k] + rnd.choice((b"\xff", b"\xc3", b"\x80")) + data[k:]


MUTATIONS = {
    "quoted-field": _field(lambda f, rnd: f'"{f}"'),
    "stray-quote": lambda t, rnd: _insert(t, rnd, '"'),
    "cr-only": lambda t, rnd: t.replace("\r\n", "\r"),
    "lf-only": lambda t, rnd: t.replace("\r\n", "\n"),
    "mixed-crlf-lf": _mixed_ends,
    "lone-cr": lambda t, rnd: _insert(t, rnd, "\r"),
    "blank-line": _blank_line,
    "bom": lambda t, rnd: "\ufeff" + t,
    "bom-in-field": _field(lambda f, rnd: "\ufeff" + f),
    "space-or-tab": _field(lambda f, rnd: rnd.choice(("", " ", "\t")) + f
                           + rnd.choice((" ", "\t", "  "))),
    "underscore": _field(_underscore),
    "unicode-digit": _field(_digit_to_unicode),
    "unicode-label": _field(_digit_to_unicode, last=True),
    "x1c": _field(lambda f, rnd: f + "\x1c"),
    "x0b": _field(lambda f, rnd: rnd.choice(("\x0b", "")) + f + "\x0b"),
    "non-finite": _field(lambda f, rnd: rnd.choice(
        ("nan", "inf", "-inf", "1e999", "-1e999", "Infinity", "NaN"))),
    "number-forms": _field(lambda f, rnd: rnd.choice(
        ("+1.5", "1E5", ".5", "5.", "-0", "1e-400", "0x10", "1e+", "--1",
         "", ".", "e5", "1.5e+3", "1,5"))),
    "nul": lambda t, rnd: _insert(t, rnd, "\0"),
    "ragged": lambda t, rnd: _edit_field(
        t, rnd, lambda f, r: r.choice(("", f + ",1", f + ","))),
    "field-over-limit": _field(lambda f, rnd: "0" * rnd.choice(
        (LIMIT - 1, LIMIT, LIMIT + 1))),
    "label-16-to-19-digits": _field(lambda f, rnd: str(rnd.randrange(
        10 ** 15, MAX_LABEL + 1)), last=True),
    "label-20-digits": _field(lambda f, rnd: str(rnd.randrange(
        MAX_LABEL + 1, 10 ** 20)), last=True),
    "label-leading-zeros": _field(lambda f, rnd: "0" * rnd.choice(
        (1, 20, 5000)) + f, last=True),
    "label-5000-digits": _field(lambda f, rnd: "1" * 5000, last=True),
    "label-sign-or-point": _field(lambda f, rnd: rnd.choice(
        ("+", "-", "")) + f + rnd.choice((".0", "e0", "")), last=True),
    "header": _header,
    "truncate": lambda t, rnd: t[:rnd.randrange(len(t) + 1)],
    "non-utf8": _non_utf8,
}


def _base(seed: int, n: int = 4, d: int = 3):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=10.0 ** rng.integers(-5, 6), size=(n, d))
    return _base_text(x, rng.integers(0, 5, size=n))


def _check(tmp_path, data):
    path = tmp_path / "m.csv"
    path.write_bytes(data if isinstance(data, bytes)
                     else data.encode("utf-8"))
    return _same(path)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_matches_the_row_loop(tmp_path, name):
    for seed in range(30):
        rnd = random.Random(seed)
        _check(tmp_path, MUTATIONS[name](_base(seed), rnd))


# finite floats, and ones whose %.17g text is long, signed or subnormal
FEATURES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, 1e16, 0.1, 123456789.123456789]))


@st.composite
def csv_texts(draw):
    n = draw(st.integers(0, 5))
    d = draw(st.integers(0, 3))
    x = np.array(draw(st.lists(FEATURES, min_size=n * d, max_size=n * d)),
                 dtype=np.float64).reshape(n, d)
    y = np.array(draw(st.lists(st.one_of(st.integers(0, 9),
                                         st.integers(0, MAX_LABEL)),
                               min_size=n, max_size=n)), dtype=np.int64)
    text = _base_text(x, y)
    rnd = draw(st.randoms(use_true_random=False))
    for name in draw(st.lists(st.sampled_from(sorted(MUTATIONS)),
                              max_size=3)):
        if isinstance(text, bytes):
            break
        text = MUTATIONS[name](text, rnd)
    return text


def _late_non_utf8() -> bytes:
    """A bad row (the blank line 2) before a byte that is not UTF-8 and
    lies past the first 8 KB, as a block-wise decoder would read it."""
    data = bytearray(b"x0,label\r\n\r\n" + b"1.0,0\r\n" * 1500)
    data[8191:8193] = b"\xc3A"
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(csv_texts())
@example(_late_non_utf8())
def test_mutated_csvs_match_the_row_loop(text):
    with tempfile.TemporaryDirectory() as tmp:
        _check(Path(tmp), text)


def test_a_late_non_utf8_byte_is_refused_before_any_row(tmp_path):
    outcome = _check(tmp_path, _late_non_utf8())
    assert outcome == (ValueError, f"{tmp_path / 'm.csv'}: line 1171: not "
                       "UTF-8 text (invalid continuation byte at byte 8191)")


@pytest.mark.parametrize("label, value", [
    ("0" * 30 + "7", 7),
    ("0" * 5000 + "9223372036854775807", MAX_LABEL),
    ("\u0661\u0662", 12),                  # Arabic-Indic 1 2
    ("\u0660" * 25 + "\u0663", 3),
])
def test_labels_with_leading_zeros_load(tmp_path, label, value):
    path = tmp_path / "z.csv"
    path.write_text(f"x0,label\r\n1.5,{label}\r\n", encoding="utf-8")
    _same(path)
    assert read_dataset(path)[1].tolist() == [value]


def test_a_label_over_the_digit_limit_is_refused_by_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("x0,x1,label\n1,2,0\n1,2," + "1" * 5000 + "\n")
    with pytest.raises(ValueError) as exc:
        read_dataset(path)
    assert str(exc.value) == (f"{path}: line 3: label '{'1' * 5000}' is not "
                              "a non-negative integer")
    assert _oracle(path) == (ValueError, str(exc.value))


def test_a_line_over_the_limit_of_fields_under_it_loads(tmp_path):
    path = tmp_path / "wide.csv"
    half = "0" * (LIMIT // 2) + "1"
    path.write_text(f"x0,x1,x2,label\r\n{half},{half},{half},3\r\n")
    x, y = read_dataset(path)
    assert x.tolist() == [[1.0, 1.0, 1.0]] and y.tolist() == [3]
    _same(path)


@pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                         ids=["missing", "directory"])
def test_unreadable_paths_raise_as_the_row_loop(tmp_path, make):
    path = tmp_path / "gone.csv"
    make(path)
    assert _same(path)[0] in (FileNotFoundError, IsADirectoryError)


def test_write_dataset_output_takes_the_numpy_pass(tmp_path, monkeypatch):
    # the walkthrough's files never reach the row loop
    def refuse(path, text):
        raise AssertionError("row loop")
    monkeypatch.setattr(harness, "_read_rows", refuse)
    rng = np.random.default_rng(3)
    for n, d in ((1, 0), (1, 1), (50, 16)):
        x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
        y = rng.integers(0, 10 ** 15, size=n)
        path = tmp_path / f"{n}x{d}.csv"
        write_dataset(path, x, y)
        got_x, got_y = read_dataset(path)
        assert got_x.tobytes() == x.tobytes() and got_x.shape == x.shape
        assert got_x.flags.c_contiguous and got_y.tolist() == y.tolist()


@pytest.mark.parametrize("data, expected", [
    (b'x0,x1,label\r\n"1.5",-2,3\r\n4,"5e-1",0\r\n',
     ([[1.5, -2.0], [4.0, 0.5]], [3, 0])),
    (b"x0,label\r\n1,0\r\n\xff,1\r\n",
     "line 3: not UTF-8 text (invalid start byte at byte 15)"),
], ids=["quoted", "non-utf8"])
def test_a_csv_the_row_loop_reads_is_opened_once(tmp_path, monkeypatch,
                                                  data, expected):
    # the numpy pass declines both; the row loop and the UTF-8 refusal
    # work on the bytes and text it was given
    path = tmp_path / "once.csv"
    path.write_bytes(data)
    opened, real = [], io.open

    def counting(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real(file, *args, **kwargs)
    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    try:
        x, y = read_dataset(path)
    except ValueError as exc:
        assert str(exc) == f"{path}: {expected}"
    else:
        assert (x.tolist(), y.tolist()) == expected
    assert len(opened) == 1
    monkeypatch.undo()
    _same(path)
