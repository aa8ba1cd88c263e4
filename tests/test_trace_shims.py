"""The benchmark's trace shims still find every name they patch.

``perfbench/spans.py`` replaces public functions at the names their callers
look them up under, reading each one through ``owner.__dict__[attr]``. A
rename or move in the package would break ``perfbench/run.py --trace 1``
without failing anything else, so this checks the table against the code.
"""

import importlib.util
from pathlib import Path

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
