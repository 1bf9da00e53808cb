"""The benchmark's tracer wraps permatch functions by module and name
(``perfbench/spans.py``); a rename or an inlined function would silently
drop a layer from its per-layer report."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    missing = [
        f"{module}.{attr}"
        for module, attr, _key in spans.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
