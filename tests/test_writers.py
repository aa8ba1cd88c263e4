"""Every writer either refuses its input and leaves no file, or writes a
file its reader loads back exactly: save_bundle, save_params, save_index
and write_dataset, over values past float32's range, NaN, infinities and
task ids too long for the framing. write_dataset also writes the bytes
of the csv.writer loop it replaced, kept in tests/dataset_reference.py."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataset_reference as reference
from taskswitch import (CodecError, CompressedModule, MlpSpec, ParamSet,
                        ReferenceIndex, StructureError, choose_format, cli,
                        harness, load_bundle, load_index, load_params,
                        read_dataset, save_bundle, save_index, save_params,
                        write_dataset)
from taskswitch.cli import main
from taskswitch.harness import MAX_LABEL

REFUSALS = (CodecError, StructureError, ValueError)

PLAIN = st.floats(-1e3, 1e3)
# any float64, and the ones float32 cannot hold or rounds to zero
WILD = st.one_of(st.floats(), st.sampled_from([np.nan, np.inf, 3.5e38,
                                               -1e300, 1e-46]))
# short ids, and ids of 2-byte characters on either side of 65535 bytes
IDS = st.one_of(st.text(max_size=8),
                st.integers(32766, 32769).map(lambda n: "é" * n))


def floats(size, values=PLAIN):
    """size values, at most one of them replaced by a wild one."""
    return st.tuples(
        st.lists(values, min_size=size, max_size=size),
        st.lists(st.tuples(st.integers(0, max(size - 1, 0)), WILD),
                 max_size=min(size, 1)),
    ).map(lambda drawn: _poisoned(*drawn))


def _poisoned(values, edits):
    out = np.array(values, dtype=np.float64)
    for at, value in edits:
        out[at] = value
    return out


def _f32(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def _round_trip(write, read):
    """read(path) after write(path), or None when write refused and left no
    file behind."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        try:
            write(path)
        except REFUSALS:
            assert not path.exists()
            return None
        return read(path)


@st.composite
def modules(draw):
    n = draw(st.integers(1, 40))
    b = draw(st.integers(1, 4))
    support = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))),
                       dtype=np.int64)
    bins = np.array(draw(st.lists(st.integers(0, (1 << b) - 1),
                                  min_size=support.size,
                                  max_size=support.size)), dtype=np.int64)
    rn, rp, scale = draw(floats(3))
    rn, rp = abs(rn), abs(rp) if draw(st.integers(0, 9)) else -rp
    return CompressedModule(n, support, bins, b, rn, rp, scale)


@given(st.lists(st.tuples(IDS, st.lists(modules(), min_size=2, max_size=2)),
                max_size=3),
       st.lists(st.text(max_size=5), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_save_bundle_round_trips_or_refuses(tasks, names):
    def write(path):
        save_bundle(path, [(tid, [choose_format(m) for m in mods])
                           for tid, mods in tasks], names)

    loaded = _round_trip(write, lambda path: load_bundle(path)[0])
    if loaded is None:
        return
    assert [sv.task_id for sv in loaded] == [tid for tid, _ in tasks]
    for sv, (_, mods) in zip(loaded, tasks):
        assert sv.names == names
        for (_, got), want in zip(sv.modules, mods):
            assert got.length == want.length
            assert got.bit_width == want.bit_width
            np.testing.assert_array_equal(got.support, want.support)
            np.testing.assert_array_equal(got.bins, want.bins)
            assert (got.range_neg, got.range_pos, got.scale) == tuple(
                _f32([want.range_neg, want.range_pos, want.scale]))


@given(IDS, floats(51), st.booleans())
@settings(max_examples=60, deadline=None)
def test_save_params_round_trips_or_refuses(name, flat, misfit):
    spec = MlpSpec((4, 6, 3))
    sizes = [24, 6, 18, 3]
    if misfit:   # modules of sizes the stored layout contradicts
        sizes = [23, 7, 18, 3]
    params = ParamSet(list(zip(spec.module_names(),
                               np.split(flat, np.cumsum(sizes)[:-1]))))
    loaded = _round_trip(lambda path: save_params(path, spec, params, name),
                         load_params)
    if loaded is None:
        return
    assert not misfit
    got_spec, got, got_name = loaded
    assert got_spec == spec and got_name == name
    for (gn, gv), (wn, wv) in zip(got.modules, params.modules):
        assert gn == wn and gv.tobytes() == _f32(wv).tobytes()


@given(st.lists(IDS, max_size=3), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_save_index_round_trips_or_refuses(task_ids, dim, data):
    labels = np.array(data.draw(st.lists(
        st.integers(0, max(len(task_ids) - 1, 0)),
        max_size=8 if task_ids else 0)), dtype=np.int64)
    if data.draw(st.integers(0, 4)):   # mostly one run per task, in order
        labels = np.sort(labels)
    if labels.size and not data.draw(st.integers(0, 9)):
        labels[-1] = data.draw(st.sampled_from([-1, len(task_ids)]))
    width = dim + data.draw(st.sampled_from([0, 0, 0, 1]))
    centers = data.draw(floats(labels.size * dim))
    proj = data.draw(floats(2 * width))

    def write(path):   # repeated ids, unknown labels and another projection
        # width are refused as the index is built
        save_index(path, ReferenceIndex(
            task_ids, centers.reshape(labels.size, dim), labels,
            proj.reshape(2, width)))

    loaded = _round_trip(write, load_index)
    if loaded is None:
        return
    assert loaded.task_ids == tuple(task_ids)
    np.testing.assert_array_equal(loaded.labels, labels)
    assert loaded.centers.tobytes() == _f32(centers).tobytes()
    assert loaded.projection.tobytes() == _f32(proj).tobytes()


# every finite float64, and the ones whose shortest text is unusual
DATASET_VALUES = st.one_of(
    PLAIN, st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                     np.finfo(np.float64).max, np.finfo(np.float64).min]))
# labels of either integer dtype, out of range, and at MAX_LABEL's edge
LABELS = {
    np.int64: st.one_of(st.integers(-2, 9), st.integers(-2**63, 2**63 - 1),
                        st.just(MAX_LABEL)),
    np.uint64: st.one_of(st.integers(0, 9), st.integers(0, 2**64 - 1),
                         st.sampled_from([MAX_LABEL, MAX_LABEL + 1])),
}


def _written(write, path):
    """The bytes write(path) leaves, or the type and message of its
    refusal after which no file is left."""
    try:
        write(path)
    except REFUSALS as exc:
        assert not path.exists()
        return type(exc), str(exc)
    out = path.read_bytes()
    path.unlink()
    return out


@given(st.integers(0, 6), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_write_dataset_round_trips_or_refuses(rows, cols, data):
    x = data.draw(floats(rows * cols, DATASET_VALUES)).reshape(rows, cols)
    dtype = data.draw(st.sampled_from([np.int64, np.uint64]))
    y = np.array(data.draw(st.lists(LABELS[dtype], min_size=rows,
                                    max_size=rows)), dtype=dtype)
    if not data.draw(st.integers(0, 9)):
        y = y + 0.5     # labels the CSV cannot carry
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        assert _written(lambda p: write_dataset(p, x, y), path) == \
            _written(lambda p: reference.write_dataset(p, x, y), path)
    loaded = _round_trip(lambda path: write_dataset(path, x, y), read_dataset)
    if loaded is None:
        return
    assert loaded[0].tobytes() == x.tobytes()
    np.testing.assert_array_equal(loaded[1], y)


def test_gen_tasks_matches_the_csv_writer_oracle(tmp_path, monkeypatch):
    argv = ["gen-tasks", "--tasks", "5", "--dim", "7", "--train-size", "333",
            "--test-size", "41", "--out"]
    assert main(argv + [str(tmp_path / "new")]) == 0
    monkeypatch.setattr(harness, "write_dataset", reference.write_dataset)
    monkeypatch.setattr(cli, "write_dataset", reference.write_dataset)
    assert main(argv + [str(tmp_path / "old")]) == 0
    names = sorted(p.name for p in (tmp_path / "old").iterdir())
    assert len(names) == 12
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "old" / name).read_bytes(), name
