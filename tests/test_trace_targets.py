"""The benchmark's per-layer tracer (cfbench/spans.py) wraps cfrealize
functions by module and attribute name.  A deleted or renamed function would
break a traced benchmark run (``run.py --trace 1``) while every other test
still passes, so each name it lists must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "cfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("cfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = load_spans()
    missing = []
    for module, attr, _ in spans.TIMED + spans.COUNTED:
        obj = importlib.import_module(f"cfrealize.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"cfrealize.{module}.{attr}")
    assert not missing, f"traced names that no longer resolve: {missing}"
