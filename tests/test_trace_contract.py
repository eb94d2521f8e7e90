"""The benchmark's layer trace wraps qcat functions by name from outside
the package and reads fields of what they return.  A rename or deletion
here would only surface in a traced benchmark run, so check that every
name it wraps still resolves and that the fields it reads are there."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qcat import qcons
from qcat.delta import EDGEWISE, pullback_model
from qcat.exact import AbPInstance
from qcat.fincat import chain_poset, nerve_model
from qcat.simpset import standard_simplex

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = _load_tracer()
LAYERS = TRACER_MODULE.LAYERS


@pytest.mark.parametrize("module,path,span", LAYERS,
                         ids=[span for _, _, span in LAYERS])
def test_traced_layer_resolves(module, path, span):
    owner = importlib.import_module("qcat." + module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr]), span


def test_compile_result_has_the_fields_the_tracer_reads():
    """`_compile_after` counts `space.dims` and, for a model built by
    `nerve_model`, the `tokens` of each level."""
    rec = TRACER_MODULE.Recorder("contract")
    nerve = nerve_model(chain_poset(1))
    rec.nerve_models[id(nerve)] = nerve
    pull = pullback_model(EDGEWISE, standard_simplex(1), 2)
    for model, cells, tokens in ((nerve, 3, 2 + 3), (pull, 5, 3 + 5 + 7)):
        result = model.compile()
        assert len(result.space.dims) == cells
        assert sum(len(toks) for toks in result.tokens.values()) == tokens
        TRACER_MODULE._compile_after(rec, (model,), result)
    assert rec.counts["simpset.cells"] == 3 + 5
    assert rec.counts["fincat.nerve_tokens"] == 2 + 3


def test_diagram_count_is_the_length_of_the_enumerated_list():
    """`qcons.diagrams` is `len` of what `enumerate_ambigressive` returns,
    so it must stay a sized list: 154 diagrams at n = 2 on abp:2:4."""
    before, after = TRACER_MODULE.HOOKS["qcons.enumerate_ambigressive"]
    assert before is None
    rec = TRACER_MODULE.Recorder("contract")
    inst = AbPInstance(2, 4)
    after(rec, (inst, 2), qcons.enumerate_ambigressive(inst, 2))
    assert rec.counts["qcons.diagrams"] == 154
