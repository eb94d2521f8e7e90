"""The benchmark's layer trace wraps qcat functions by name from outside
the package.  A rename or deletion here would only surface in a traced
benchmark run, so check that every name it wraps still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


LAYERS = _load_tracer().LAYERS


@pytest.mark.parametrize("module,path,span", LAYERS,
                         ids=[span for _, _, span in LAYERS])
def test_traced_layer_resolves(module, path, span):
    owner = importlib.import_module("qcat." + module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr]), span
