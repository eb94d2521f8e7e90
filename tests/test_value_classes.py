"""The package's value classes are plain `__slots__` classes, because
importing `dataclasses` and building each decorated class cost every
command more start-up than most of them spend computing.  The
`__eq__`, `__hash__` and `__repr__` they inherit from `record.Record`
must behave exactly as the frozen dataclasses they replaced: each is
checked here against a dataclass twin (`dataclass_twins.py`) on
instances the package builds."""

import dataclasses
import importlib
import pkgutil

import pytest

import dataclass_twins as twins
import qcat
from qcat import delta, exact, gammastr, ordmaps, presentation, qcons, simpset
from qcat.exact import AbPInstance, VectInstance
from qcat.fincat import FiniteCategory
from qcat.record import Record


def _samples():
    v21, a24 = VectInstance(2, 1), AbPInstance(2, 4)
    morphisms = a24.hom((1,), (2,)) + a24.hom((2,), (1,)) + v21.hom(1, 1)
    spans = [s for y in a24.objects() for s in exact.all_spans(a24, (1,), y)]
    squares = exact.exact_sequence_squares(v21)
    rp2 = simpset.simplicial_set_from_triangulation(
        [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
         (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)])
    raw = rp2.pi1_presentation()
    verdict = delta.is_combinatorial_subdivision(delta.EDGEWISE, 2, 3)
    qc = qcons.q_category(v21)
    return {
        twins.Mor: morphisms,
        twins.Span: spans,
        twins.Square: squares,
        twins.TripleReport: [exact.verify_triple(v21),
                             exact.verify_triple(a24),
                             exact.TripleReport(False, 3, ("a", "b"))],
        twins.DeltaMap: list(ordmaps.all_maps(1, 2))
        + list(ordmaps.all_maps(2, 1)),
        twins.LambdaMorphism: list(gammastr.all_lam({1, 2}, {1, 2})),
        twins.GroupPresentation: [raw, raw.simplified(),
                                  presentation.GroupPresentation((), ())],
        twins.JoinWord: [delta.parse_word(w) for w in ("op,id", "id", "op")],
        twins.ConstWord: [delta.parse_word("const:0"),
                          delta.parse_word("const:2")],
        twins.Contractibility: [c for _, c in verdict.per_m]
        + [simpset.contractibility(rp2, 2)],
        twins.QCategory: [qc, qcons.q_category(v21),
                          qcons.QCategory(qc.instance, qc.category, {}, {})],
    }


SAMPLES = _samples()


def _fields(twin):
    return [f.name for f in dataclasses.fields(twin)]


def _rebuilt(x, twin):
    """A second instance of x's class with the same fields."""
    return type(x)(*(getattr(x, name) for name in _fields(twin)))


@pytest.mark.parametrize("twin", list(SAMPLES), ids=lambda t: t.__name__)
def test_value_class_matches_its_dataclass_twin(twin):
    samples = SAMPLES[twin]
    assert len(samples) >= 2
    assert all(type(x).__name__ == twin.__name__ for x in samples)
    values = samples + [_rebuilt(x, twin) for x in samples]
    mirrored = [twin(*(getattr(x, name) for name in _fields(twin)))
                for x in values]
    for x, t in zip(values, mirrored):
        assert repr(x) == repr(t)
        assert hash(x) == hash(t)
    for x, tx in zip(values, mirrored):
        for y, ty in zip(values, mirrored):
            assert (x == y) == (tx == ty)
            assert (x != y) == (tx != ty)
    # a rebuilt copy is a distinct object that compares equal
    assert all(values[i] == values[i + len(samples)] and
               values[i] is not values[i + len(samples)]
               for i in range(len(samples)))


def test_qcategory_equality_skips_the_span_tables():
    qc, other, bare = SAMPLES[twins.QCategory]
    assert qc == bare and hash(qc) == hash(bare)
    assert qc != other


def test_equal_fields_of_different_classes_compare_unequal():
    m = exact.Mor(0, 1, ())
    s = exact.Span(0, 1, ())
    assert m != s and s != m
    assert exact.Mor(0, 1, ()) != twins.Mor(0, 1, ())
    assert twins.Mor(0, 1, ()) != exact.Mor(0, 1, ())
    assert delta.JoinWord(("op",)) != twins.JoinWord(("op",))
    assert ordmaps.DeltaMap(0, 0, (0,)) != twins.DeltaMap(0, 0, (0,))
    assert delta.ConstWord(1) != delta.JoinWord(("id",))
    cat = FiniteCategory(["x"], {"1": ("x", "x")}, {"x": "1"},
                         {("1", "1"): "1"})
    qc = qcons.QCategory(None, cat, {}, {})
    assert qc != twins.QCategory(None, cat, {}, {})


def test_every_record_class_has_a_dataclass_twin():
    for info in pkgutil.iter_modules(qcat.__path__):
        importlib.import_module(f"qcat.{info.name}")
    records = {cls.__name__ for cls in Record.__subclasses__()}
    assert records == {twin.__name__ for twin in SAMPLES}


@pytest.mark.parametrize("twin", list(SAMPLES), ids=lambda t: t.__name__)
def test_value_classes_keep_no_instance_dict(twin):
    assert not any(hasattr(x, "__dict__") for x in SAMPLES[twin])
