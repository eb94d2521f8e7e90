"""Embedding checks, torsion filtrations, slice probes, and the relative
span category.

The morphism census on the line was hand-checked bridge by bridge before
freezing; slice homology values were frozen from the first machine run.
"""

from collections import Counter

import pytest

from qcat.deviss import (
    ExactEmbedding,
    IdentityEmbedding,
    VectToAbP,
    admissible_filtration,
    comma_over,
    devissage_certificate,
    q_functor,
    relative_q_objects,
)
from qcat.errors import GuardError
from qcat.exact import (AbPInstance, Mor, Square, VectInstance, bicartesian_check,
                        exact_sequence_squares)
from qcat.simpset import contractibility


# -- embedding check only the tests use ----------------------------------


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
                sum_s = s.direct_sum(x, y)[0]
            except GuardError:
                continue
            sum_t = t.direct_sum(psi.on_object(x), psi.on_object(y))[0]
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
            filt.length,
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
    with pytest.raises(GuardError, match="bounded"):
        comma_over(fun, (), 5)


def test_devissage_depth_guard_trips_before_building_the_functor(
        psi, monkeypatch):
    def unreachable(_psi):
        pytest.fail("q_functor built before the depth guard")

    monkeypatch.setattr("qcat.deviss.q_functor", unreachable)
    with pytest.raises(GuardError, match="bounded"):
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


def test_relative_q_terminal_at_unit_bound():
    v1 = VectInstance(2, 1)
    cat = relative_q_objects(IdentityEmbedding(v1), max_order=1)
    assert len(cat.objects) == 1
    assert len(cat.morphisms()) == 1


def test_relative_q_object_guard():
    with pytest.raises(GuardError, match="64"):
        relative_q_objects(IdentityEmbedding(VectInstance(2, 3)))


def test_relative_q_through_nonidentity_embedding():
    # the embedding is essentially surjective here, so the category has
    # the same shape as the one over the line itself
    psi = VectToAbP(VectInstance(2, 1), AbPInstance(2, 2))
    cat = relative_q_objects(psi)
    assert len(cat.objects) == 5
    assert len(cat.morphisms()) == 11
