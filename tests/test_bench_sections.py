"""The benchmark's bundle-io section still runs against the package.

``perfbench/sections.py`` builds ``CompressedModule`` objects, writes them
through ``to_streams`` and checks what ``load_bundle`` returns. A move or
signature change in the package would make every bundle-io operation fail
without failing anything else, so this runs the section's synthesis,
write and check once at smoke size.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_sections(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # for ``from spans import``
    spec = importlib.util.spec_from_file_location(
        "perfbench_sections", PERFBENCH / "sections.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_synthetic_bundles_round_trip(monkeypatch, tmp_path):
    sections = _load_sections(monkeypatch)
    from taskswitch import container

    synth = sections.synthesize(7, sections.SMOKE)
    for key, group, names in (
            ("desk", synth.desk, sections.DESK.module_names()),
            ("wide", synth.wide, synth.wide_spec.module_names())):
        path = tmp_path / f"{key}.tswc"
        container.save_bundle(path, [(c.task_id, c.to_streams())
                                     for c in group], names)
        loaded, _ = container.load_bundle(path)
        assert sections._bundle_matches(loaded, synth, len(group)), key
