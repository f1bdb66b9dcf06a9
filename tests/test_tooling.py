import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module,name", _traced_names())
def test_traced_function_exists(module, name):
    # the benchmark's --trace 1 pass wraps each of these by name
    assert callable(getattr(importlib.import_module(f"phasebound.{module}"), name, None))
