"""The benchmark's trace shims still find every name they patch.

``perfbench/spans.py`` replaces public functions at the names their callers
look them up under, reading each one through ``owner.__dict__[attr]``. A
rename or move in the package would break ``perfbench/run.py --trace 1``
without failing anything else, so this checks the table against the code.
"""

import importlib.util
from pathlib import Path

import numpy as np

from taskswitch.codec import (BitReader, CompressedModule, choose_format,
                              decode_at, encode_dense)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shim_target_is_defined_on_its_owner():
    table = _load_spans()._shim_table()
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in table if attr not in vars(owner)]
    assert missing == []


def test_codec_extractors_read_real_results():
    # the span attributes come from the return values, so a change to
    # their shape must fail here rather than under --trace 1
    spans = _load_spans()
    mod = CompressedModule(64, np.array([3, 40]), np.array([1, 0]), 1,
                           1.0, 1.0, 1.0)
    enc = choose_format(mod)
    assert spans._encode_attrs((mod,), {}, enc) == {
        "elems": 64, "fmt": enc.header.fmt.name}
    values = np.array([0.5, 0.0, -2.0])
    assert spans._encode_attrs((values,), {}, encode_dense(values)) == {
        "elems": 3, "fmt": "DENSE"}
    reader = BitReader(enc.data)
    assert spans._decode_attrs((reader,), {}, decode_at(reader)) == {
        "elems": 64}
