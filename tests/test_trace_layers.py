"""The benchmark's tracer wraps library functions by name
(`perfbench/trace.py`, `LAYERS`).  Every name it lists must still exist,
so that renaming or deleting one fails here before a traced benchmark
run does."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = [(module, path) for _name, module, path, _counter in _layers()]


@pytest.mark.parametrize("module,path", LAYERS, ids=[f"{m}.{p}" for m, p in LAYERS])
def test_traced_layer_resolves(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
