"""The benchmark's tracer wraps homlab functions by module and name; each of
those names must still resolve, so renaming a traced kernel fails here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, qualname, _, _ in tracing.TRACED:
        target = importlib.import_module(f"homlab.{module}")
        for attr in qualname.split("."):
            target = getattr(target, attr)
        assert callable(target), f"homlab.{module}.{qualname}"
