"""Embedding checks, torsion filtrations, slice probes, and the relative
span category.

The morphism census on the line was hand-checked bridge by bridge before
freezing; slice homology values were frozen from the first machine run.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qcat.deviss import (
    AdmissibleFiltration,
    ExactEmbedding,
    VectToAbP,
    admissible_filtration,
    comma_over,
    devissage_certificate,
    q_functor,
    relative_q_objects,
)
from qcat.errors import GuardError
from qcat.exact import (AbPInstance, Instance, Mor, Square, VectInstance,
                        bicartesian_check, exact_sequence_squares,
                        parse_instance)
from qcat.simpset import contractibility
from span_oracles import direct_sum, reference_relative_q_objects

SRC = Path(__file__).resolve().parent.parent / "src"


# -- embedding and its check only the tests use --------------------------


class IdentityEmbedding(ExactEmbedding):
    def __init__(self, inst: Instance):
        self.source = inst
        self.target = inst

    def on_object(self, u):
        return u

    def on_mor(self, f: Mor) -> Mor:
        return f


def check_embedding(psi: ExactEmbedding) -> list[str]:
    """Exhaustive exactness spot-check on the source's bounded contents."""
    s, t = psi.source, psi.target
    problems = []
    if psi.on_object(s.zero_object()) != t.zero_object():
        problems.append("zero object not preserved")
    homs = {}
    for x in s.objects():
        for y in s.objects():
            homs[(x, y)] = s.hom(x, y)
            for f in homs[(x, y)]:
                g = psi.on_mor(f)
                if (g.src, g.dst) != (psi.on_object(x), psi.on_object(y)):
                    problems.append(f"image of {f!r} has wrong endpoints")
                if s.is_mono(f) and not t.is_mono(g):
                    problems.append(f"ingressive {f!r} loses its class")
                if s.is_epi(f) and not t.is_epi(g):
                    problems.append(f"egressive {f!r} loses its class")
        if psi.on_mor(s.identity(x)) != t.identity(psi.on_object(x)):
            problems.append(f"identity of {x!r} not preserved")
    for (x, y), fs in homs.items():
        for z in s.objects():
            for f in fs:
                for g in homs[(y, z)]:
                    if psi.on_mor(s.compose(g, f)) != \
                            t.compose(psi.on_mor(g), psi.on_mor(f)):
                        problems.append(
                            f"composition not preserved at ({g!r}, {f!r})")
    for x in s.objects():
        for y in s.objects():
            try:
                sum_s = direct_sum(s, x, y)[0]
            except GuardError:
                continue
            sum_t = direct_sum(t, psi.on_object(x), psi.on_object(y))[0]
            if psi.on_object(sum_s) != sum_t:
                problems.append(f"direct sum of {x!r}, {y!r} not preserved")
    for sq in exact_sequence_squares(s):
        mapped = Square(psi.on_mor(sq.top), psi.on_mor(sq.left),
                        psi.on_mor(sq.right), psi.on_mor(sq.bottom))
        if not bicartesian_check(t, mapped):
            problems.append("a bicartesian square loses bicartesianness")
    return problems


@pytest.fixture(scope="module")
def psi():
    return VectToAbP(VectInstance(2, 2), AbPInstance(2, 4))


@pytest.fixture(scope="module")
def fun(psi):
    return q_functor(psi)


# -- embedding checks ----------------------------------------------------


def test_embedding_checks_pass(psi):
    assert check_embedding(psi) == []
    assert check_embedding(IdentityEmbedding(VectInstance(2, 1))) == []
    assert check_embedding(IdentityEmbedding(AbPInstance(2, 4))) == []
    assert check_embedding(VectToAbP(VectInstance(2, 2), AbPInstance(2, 8))) == []


def test_broken_embedding_is_reported():
    class Scrambled(VectToAbP):
        def on_mor(self, f):
            g = super().on_mor(f)
            return Mor(g.src, g.dst, tuple(reversed(g.rows)))

    bad = Scrambled(VectInstance(2, 2), AbPInstance(2, 4))
    assert check_embedding(bad) != []


def test_vect_to_abp_constructor_guards():
    with pytest.raises(ValueError, match="characteristic"):
        VectToAbP(VectInstance(3, 1), AbPInstance(2, 4))
    with pytest.raises(ValueError, match="exceeds"):
        VectToAbP(VectInstance(2, 3), AbPInstance(2, 4))


def test_q_functor_sends_objects_through_the_embedding(psi):
    fun = q_functor(psi)
    assert fun.on_objects[0] == ()
    assert fun.on_objects[1] == (1,)
    assert fun.on_objects[2] == (1, 1)


# -- torsion filtrations -------------------------------------------------


def test_filtration_table_on_small_abelian_instance(psi):
    t, s = psi.target, psi.source
    table = {}
    for x in t.objects():
        filt = admissible_filtration(psi, x)
        table[t.label(x)] = (
            len(filt.stage_objects) - 1,
            tuple(t.label(o) for o in filt.quotient_objects),
            tuple(s.label(w) for w in filt.witnesses),
        )
    assert table == {
        "0": (0, (), ()),
        "Z/2": (1, ("Z/2",), ("F^1",)),
        "Z/2+Z/2": (1, ("Z/2+Z/2",), ("F^2",)),
        "Z/4": (2, ("Z/2", "Z/2"), ("F^1", "F^1")),
    }


def test_filtration_of_mixed_torsion_object():
    psi = VectToAbP(VectInstance(2, 2), AbPInstance(2, 8))
    t = psi.target
    filt = admissible_filtration(psi, (2, 1))
    assert [t.label(o) for o in filt.stage_objects] == ["0", "Z/2+Z/2", "Z/4+Z/2"]
    assert [t.label(o) for o in filt.quotient_objects] == ["Z/2+Z/2", "Z/2"]
    assert [psi.source.label(w) for w in filt.witnesses] == ["F^2", "F^1"]


def test_filtration_witnesses_through_the_identity_embedding():
    # each witness is the source object psi maps onto its quotient, which
    # under the identity is the quotient itself
    psi = IdentityEmbedding(AbPInstance(2, 8))
    t = psi.target
    table = {}
    for x in t.objects():
        filt = admissible_filtration(psi, x)
        assert filt.witnesses == filt.quotient_objects, x
        table[t.label(x)] = tuple(t.label(q) for q in filt.quotient_objects)
    assert table == {
        "0": (), "Z/2": ("Z/2",), "Z/4": ("Z/2", "Z/2"),
        "Z/2+Z/2": ("Z/2+Z/2",), "Z/8": ("Z/2", "Z/2", "Z/2"),
        "Z/4+Z/2": ("Z/2+Z/2", "Z/2"), "Z/2+Z/2+Z/2": ("Z/2+Z/2+Z/2",),
    }


def test_filtration_stage_orders_multiply(psi):
    t = psi.target
    for x in t.objects():
        filt = admissible_filtration(psi, x)
        for i, q in enumerate(filt.quotient_objects):
            lower = t.order(filt.stage_objects[i])
            upper = t.order(filt.stage_objects[i + 1])
            assert lower * t.order(q) == upper
        for step in filt.inclusions:
            assert t.is_mono(step)


def reference_admissible_filtration(psi: ExactEmbedding, x):
    """The filtration with each quotient built as a cokernel and checked
    to be elementary abelian."""
    t = psi.target
    if x not in t.objects():
        raise ValueError(f"{x!r} is not an object of the target instance")
    ident = t.identity(x).rows
    stage_objects = []
    stage_incls = []
    q = 1
    while True:
        scaled = tuple(tuple(q * a for a in row) for row in ident)
        obj, incl = t.kernel(Mor(x, x, scaled))
        stage_objects.append(obj)
        stage_incls.append(incl)
        if t.order(obj) == t.order(x):
            break
        q *= t.p
    inclusions = []
    for i in range(1, len(stage_objects)):
        lower, upper = stage_incls[i - 1], stage_incls[i]
        inclusions.append(next(u for u in t.hom(lower.src, upper.src)
                               if t.compose(upper, u) == lower))
    quotients = []
    witnesses = []
    for i, step in enumerate(inclusions):
        q_obj = t.cokernel(step)[0]
        if any(m != t.p for m in t.moduli_of(q_obj)):
            raise ValueError(f"stage {i + 1} quotient of {t.label(x)} is "
                             f"not elementary abelian")
        u = next((u for u in psi.source.objects()
                  if psi.on_object(u) == q_obj), None)
        if u is None:
            raise ValueError(
                f"no filtration within bounds: stage {i + 1} quotient "
                f"{t.label(q_obj)} of {t.label(x)} has no source witness")
        quotients.append(q_obj)
        witnesses.append(u)
    return AdmissibleFiltration(x, tuple(stage_objects), tuple(inclusions),
                                tuple(quotients), tuple(witnesses))


def _filtration_or_error(build, psi, x):
    try:
        filt = build(psi, x)
    except ValueError as exc:
        return str(exc)
    return tuple(getattr(filt, field) for field in filt.__slots__)


FILTRATION_EMBEDDINGS = {
    "vect:2:2 -> abp:2:4": lambda: VectToAbP(VectInstance(2, 2),
                                             AbPInstance(2, 4)),
    "vect:2:2 -> abp:2:8": lambda: VectToAbP(VectInstance(2, 2),
                                             AbPInstance(2, 8)),
    "vect:2:1 -> abp:2:8": lambda: VectToAbP(VectInstance(2, 1),
                                             AbPInstance(2, 8)),
    "vect:3:2 -> abp:3:27": lambda: VectToAbP(VectInstance(3, 2),
                                              AbPInstance(3, 27)),
    **{f"id {d}": (lambda d=d: IdentityEmbedding(parse_instance(d)))
       for d in ["abp:2:8", "abp:2:16", "abp:3:27", "abp:5:25", "vect:2:2",
                 "vect:3:2"]},
}


@pytest.mark.parametrize("embedding", sorted(FILTRATION_EMBEDDINGS))
def test_filtration_matches_the_cokernel_oracle(embedding):
    psi = FILTRATION_EMBEDDINGS[embedding]()
    got = {x: _filtration_or_error(admissible_filtration, psi, x)
           for x in psi.target.objects()}
    want = {x: _filtration_or_error(reference_admissible_filtration, psi, x)
            for x in psi.target.objects()}
    assert got == want
    # the first quotient has one Z/p per cyclic factor of x, so x has a
    # filtration exactly when the source has an object of that rank
    rank = max(len(psi.source.moduli_of(u)) for u in psi.source.objects())
    for x, v in got.items():
        missed = len(psi.target.moduli_of(x)) > rank
        assert isinstance(v, str) == missed, x
        assert not missed or "has no source witness" in v


def test_filtration_witness_failure_outside_bounds():
    thin = VectToAbP(VectInstance(2, 1), AbPInstance(2, 4))
    with pytest.raises(ValueError, match="no filtration within bounds"):
        admissible_filtration(thin, (1, 1))


def test_filtration_rejects_foreign_object(psi):
    with pytest.raises(ValueError, match="not an object"):
        admissible_filtration(psi, (3,))


# -- slices of the induced span functor ----------------------------------


def test_comma_over_zero_is_a_point(fun):
    ss = comma_over(fun, (), 2)
    assert [len(ss.nondeg(n)) for n in range(3)] == [1, 0, 0]
    assert contractibility(ss, 2).certified()


def test_identity_slices_are_contractible():
    v2 = VectInstance(2, 2)
    ident = IdentityEmbedding(v2)
    fun = q_functor(ident)
    for x, depth in [(0, 2), (1, 2), (2, 1)]:
        ss = comma_over(fun, x, depth + 1)
        report = contractibility(ss, depth)
        assert report.certified(), (x, report.reason)


def test_identity_slice_has_terminal_object():
    from qcat.fincat import comma

    v2 = VectInstance(2, 2)
    fun = q_functor(IdentityEmbedding(v2))
    slice_cat = comma(fun, 1)
    terminals = [t for t in slice_cat.objects
                 if all(len(slice_cat.hom(o, t)) == 1 for o in slice_cat.objects)]
    assert len(terminals) == 1


def test_comma_depth_guard(fun):
    with pytest.raises(GuardError, match="^comma nerve: 5 levels, over the "
                                         "limit of 4$"):
        comma_over(fun, (), 5)


def test_devissage_depth_guard_trips_before_building_the_functor(
        psi, monkeypatch):
    def unreachable(_psi):
        pytest.fail("q_functor built before the depth guard")

    monkeypatch.setattr("qcat.deviss.q_functor", unreachable)
    with pytest.raises(GuardError, match="^comma nerve: 5 levels"):
        devissage_certificate(psi, [(1,)], 5)


def test_probe_slice_regression_over_c2(fun):
    # frozen after the first machine run at full probe depth
    ss = comma_over(fun, (1,), 3)
    assert [len(ss.nondeg(n)) for n in range(4)] == [3, 2, 0, 0]
    assert ss.homology(2) == [(1, []), (0, []), (0, [])]
    report = contractibility(ss, 2)
    assert report.certified()
    assert report.depth == 2


# -- stage certificates ---------------------------------------------------


def test_devissage_depth_two_probes(psi):
    cert = devissage_certificate(psi, [(), (1,)], 2)
    assert cert.stages_consistent
    assert cert.all_contractible
    assert [p.certificate.status for p in cert.probes] == \
        ["contractible_up_to"] * 2


def test_devissage_mixed_probe_stages(psi):
    cert = devissage_certificate(psi, [(2,)], 2)
    assert cert.stages_consistent
    pairs = [(sc.lower, sc.upper, sc.equal) for sc in cert.stages]
    assert pairs == [("0", "Z/2", True), ("Z/2", "Z/4", True)]
    for sc in cert.stages:
        assert sc.lower_homology == ((1, []), (0, []))


# -- the relative span category ------------------------------------------


LINE_CENSUS = {
    (("0", "0"), ("0", "0")): 1,
    (("0", "0"), ("F^1", "0")): 2,
    (("0", "0"), ("F^1", "F^1")): 1,
    (("0", "F^1"), ("0", "F^1")): 1,
    (("0", "F^1"), ("F^1", "F^1")): 3,
    (("F^1", "0"), ("F^1", "0")): 1,
    (("F^1", "F^1"), ("F^1", "F^1")): 2,
}


def test_relative_q_on_the_line():
    v1 = VectInstance(2, 1)
    cat = relative_q_objects(IdentityEmbedding(v1))
    assert len(cat.objects) == 5
    assert len(cat.morphisms()) == 11
    census = Counter(
        ((v1.label(cat.src(m)[0]), v1.label(cat.src(m)[1])),
         (v1.label(cat.dst(m)[0]), v1.label(cat.dst(m)[1])))
        for m in cat.morphisms())
    assert dict(census) == LINE_CENSUS


def _category_digests(cat) -> tuple:
    """sha256 of the sorted morphisms, identities and composition table."""
    return tuple(hashlib.sha256(repr(sorted(d.items(), key=repr)).encode())
                 .hexdigest() for d in (cat.morph, cat.identity,
                                        cat.compose_table))


# Recorded before the ambigressive pullback was read off the span table.
# Its composites bridge through 617 pullbacks, where the line composes
# through 17; a bridge's legs may move by an automorphism of its apex,
# which the class keys absorb.
EMBEDDED_LINE_DIGESTS = (
    "aed2d1620c2a19462f26d490f17d0f78c2789e67c0151477b2c9594f1920c9a3",
    "3636fe3cf5b2d53b5a8f66b81aed1805214349ffed7b7f4fd276f52aab2a09d9",
    "e4f5d0edfa276f8e59eee0d5d6dc2e7914d005252d44fd8f286ad43add2e0de5")


def test_relative_q_of_the_line_in_abp_2_4_matches_its_recorded_digests():
    psi = VectToAbP(VectInstance(2, 1), AbPInstance(2, 4))
    cat = relative_q_objects(psi)
    assert (len(cat.objects), len(cat.morph), len(cat.compose_table)) == \
        (13, 87, 617)
    assert _category_digests(cat) == EMBEDDED_LINE_DIGESTS


def test_relative_q_object_guard():
    with pytest.raises(GuardError, match="^relative construction: 689 "
                                         "objects, over the limit of 64$"):
        relative_q_objects(IdentityEmbedding(VectInstance(2, 3)))


@pytest.mark.parametrize("psi", [
    IdentityEmbedding(VectInstance(2, 1)),
    IdentityEmbedding(VectInstance(3, 1)),
    VectToAbP(VectInstance(2, 1), AbPInstance(2, 2)),
    VectToAbP(VectInstance(2, 1), AbPInstance(2, 4)),
], ids=["id-vect:2:1", "id-vect:3:1", "vect:2:1-abp:2:2", "vect:2:1-abp:2:4"])
def test_relative_q_matches_the_search_oracle(psi):
    """Each class is listed as (span class, alpha) and each composite is
    one lookup; the search over every datum, with an ambigressive
    pullback and a search for beta per composite, gives the same dicts."""
    cat = relative_q_objects(psi)
    assert (cat.morph, cat.identity, cat.compose_table) == \
        reference_relative_q_objects(psi)


def test_relative_q_rejects_an_embedding_that_is_not_exact():
    class Zeroed(VectToAbP):
        def on_mor(self, f):
            g = super().on_mor(f)
            return Mor(g.src, g.dst, tuple((0,) * len(r) for r in g.rows))

    with pytest.raises(ValueError, match="is not exact"):
        relative_q_objects(Zeroed(VectInstance(2, 1), AbPInstance(2, 2)))


def test_relative_q_triple_guard_trips_before_any_composite():
    """VectToAbP(vect:2:1, abp:2:8) lists its classes in about 1.5 s, and
    the axiom check would then scan 171,944,871 composable triples."""
    code = (
        "import qcat.deviss as d\n"
        "from qcat.errors import GuardError\n"
        "from qcat.exact import AbPInstance, VectInstance\n"
        "def unreachable(*args):\n"
        "    raise SystemExit('a composite was built before the guard')\n"
        "d.composites = unreachable\n"
        "try:\n"
        "    d.relative_q_objects(d.VectToAbP(VectInstance(2, 1),"
        " AbPInstance(2, 8)))\n"
        "except GuardError as exc:\n"
        "    print(exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "relative span category: 171944871 composable triples, over the "
        "limit of 10000000\n")


def test_relative_q_through_nonidentity_embedding():
    # the embedding is essentially surjective here, so the category has
    # the same shape as the one over the line itself
    psi = VectToAbP(VectInstance(2, 1), AbPInstance(2, 2))
    cat = relative_q_objects(psi)
    assert len(cat.objects) == 5
    assert len(cat.morphisms()) == 11
