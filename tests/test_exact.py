"""Bounded exact instances and the canonical span calculus.

Expected span counts were frozen from an independent enumeration that
works on raw element sets (no Hermite keys, no instance code); the orbit
oracle below re-derives the d=1 counts a third way, as orbits of leg
pairs under automorphisms of the apex.
"""

import random

import pytest

from qcat import exact, zmod
from qcat.errors import GuardError
from qcat.exact import (
    AbPInstance,
    Instance,
    _require_ambigressive,
    _require_legs,
    Mor,
    Span,
    Square,
    TripleReport,
    VectInstance,
    all_spans,
    ambigressive_pullback,
    bicartesian_check,
    exact_sequence_squares,
    identity_span,
    is_pullback_square,
    is_pushout_square,
    parse_instance,
    span_compose,
    span_from_legs,
    span_legs,
    verify_triple,
)
from qcat.snf import smith_diagonal
from span_oracles import (_graph_ok, direct_sum, exps_of, span_from_members,
                          span_members)
from test_zmod import (closure, reference_all_subgroups, structure_from_killed,
                       structure_of)


def ambigressive_pushout(inst: Instance, i: Mor, e: Mor) -> Square:
    """Pushout of the span i: Y >-> U, e: Y ->> V: the quotient of U + V
    by the antidiagonal image of Y.  The returned square has Y at nw and
    the pushout at se."""
    _require_legs(inst, i, e, i.src == e.src, "source")
    # the antidiagonal images of Y's generators: columns of i over -e
    anti = [(*(r[j] for r in i.rows), *(-r[j] for r in e.rows))
            for j in range(len(inst.moduli_of(i.src)))]
    mu = inst.moduli_of(i.dst)
    w, proj = inst._quotient(mu + inst.moduli_of(e.dst), anti)
    nu = len(mu)
    from_u = Mor(i.dst, w, tuple(row[:nu] for row in proj))
    from_v = Mor(e.dst, w, tuple(row[nu:] for row in proj))
    sq = Square(top=i, left=e, right=from_u, bottom=from_v)
    return _require_ambigressive(inst, sq, "pushout", w, i.src)


def reference_ambigressive_pullback(inst: Instance, i: Mor, e: Mor) -> Square:
    """The pullback that reading it off the span table replaced: the
    kernel of the difference map U + V -> Y, found by listing all of
    U + V and Hermite-reducing the members with i(u) = e(v)."""
    _require_legs(inst, i, e, i.dst == e.dst, "target")
    mu = inst.moduli_of(i.src)
    mv = inst.moduli_of(e.src)
    moduli = mu + mv
    nu = len(mu)
    members = [uv for uv in zmod.elements(moduli)
               if inst.apply(i, uv[:nu]) == inst.apply(e, uv[nu:])]
    w, rows = inst._subobject(moduli, members)
    sq = Square(top=Mor(w, i.src, rows[:nu]), left=Mor(w, e.src, rows[nu:]),
                right=i, bottom=e)
    return _require_ambigressive(inst, sq, "pullback", w, i.dst)


@pytest.fixture(scope="module")
def v1():
    return VectInstance(2, 1)


@pytest.fixture(scope="module")
def v2():
    return VectInstance(2, 2)


@pytest.fixture(scope="module")
def ab4():
    return AbPInstance(2, 4)


def test_object_inventories(v2, ab4):
    assert v2.objects() == (0, 1, 2)
    assert ab4.objects() == ((), (1,), (1, 1), (2,))
    assert AbPInstance(2, 8).objects() == \
        ((), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,))
    assert [ab4.label(x) for x in ab4.objects()] == \
        ["0", "Z/2", "Z/2+Z/2", "Z/4"]


@pytest.mark.parametrize("cls,name", [(VectInstance, "q"),
                                      (AbPInstance, "p")])
@pytest.mark.parametrize("q", [0, 1, 4, 49])
def test_instances_reject_a_modulus_that_is_not_prime(cls, name, q):
    with pytest.raises(ValueError, match=f"^{name} must be prime, got {q}$"):
        cls(q, 1)


def test_hom_sizes(v2, ab4):
    assert len(v2.hom(1, 2)) == 4
    assert len(v2.hom(2, 2)) == 16
    assert len(ab4.hom((2,), (1,))) == 2
    assert len(ab4.hom((2,), (2,))) == 4
    # through the zero object there is exactly one map each way
    z = ab4.zero_object()
    assert len(ab4.hom(z, (2,))) == 1
    assert len(ab4.hom((2,), z)) == 1


def _gauss_rank(rows, q):
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % q), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] % q:
                f = mat[r][c]
                mat[r] = [(x - f * y) % q for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_vect_predicates_match_gaussian_rank(v2):
    for x in v2.objects():
        for y in v2.objects():
            for f in v2.hom(x, y):
                rank = _gauss_rank(f.rows, v2.q)
                assert v2.is_mono(f) == (rank == x)
                assert v2.is_epi(f) == (rank == y)


def _coker_order(f, inst):
    """Oracle: |coker f| as the product of the Smith diagonal of the
    presentation matrix [f.rows | diag(dst moduli)]."""
    dst = inst.moduli_of(f.dst)
    if not dst:
        return 1
    rows = [list(r) + [m if i == j else 0 for j in range(len(dst))]
            for i, (r, m) in enumerate(zip(f.rows, dst))]
    order = 1
    for d in smith_diagonal(rows):
        order *= d
    return order


def test_abp_predicates_match_snf_oracle(ab4):
    for x in ab4.objects():
        for y in ab4.objects():
            for f in ab4.hom(x, y):
                coker = _coker_order(f, ab4)
                assert ab4.is_epi(f) == (coker == 1)
                assert ab4.is_mono(f) == \
                    (ab4.order(x) * coker == ab4.order(y))


def reference_is_mono(inst, f):
    """The element-wise mono test: only 0 maps to 0."""
    z = zmod.zero(inst.moduli_of(f.dst))
    return [inst.apply(f, v) for v in inst.elements(f.src)].count(z) == 1


def reference_is_epi(inst, f):
    """The element-wise epi test: the image has |f.dst| elements."""
    return len({inst.apply(f, v) for v in inst.elements(f.src)}) == \
        inst.order(f.dst)


def _assert_element_verdicts(inst, maps):
    verdicts = set()
    for f in maps:
        got = (inst.is_mono(f), inst.is_epi(f))
        assert got == (reference_is_mono(inst, f),
                       reference_is_epi(inst, f)), f
        verdicts.add(got)
    # monos, epis, isomorphisms and maps that are neither all occur
    assert verdicts == {(a, b) for a in (False, True) for b in (False, True)}


@pytest.mark.parametrize("descriptor", ["abp:2:4", "abp:2:8", "abp:3:9",
                                        "abp:5:25", "vect:2:2", "vect:3:2",
                                        "vect:5:2"])
def test_mono_and_epi_match_the_element_oracles(descriptor):
    inst = parse_instance(descriptor)
    objs = inst.objects()
    _assert_element_verdicts(inst, [f for x in objs for y in objs
                                    for f in inst.hom(x, y)])


def test_mono_and_epi_match_the_element_oracles_on_a_sample_of_abp_3_27():
    inst = AbPInstance(3, 27)
    objs = inst.objects()
    maps = [f for x in objs for y in objs for f in inst.hom(x, y)]
    assert len(maps) == 23509
    _assert_element_verdicts(inst, random.Random(27).sample(maps, 3000))


# frozen from the independent element-set enumeration
VECT21_SPANS = {(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 1}
VECT22_SPANS = {(0, 0): 1, (0, 1): 2, (0, 2): 5,
                (1, 0): 0, (1, 1): 1, (1, 2): 6,
                (2, 0): 0, (2, 1): 0, (2, 2): 6}
ABP4_SPANS = {("0", "0"): 1, ("0", "Z/2"): 2, ("0", "Z/4"): 3,
              ("0", "Z/2+Z/2"): 5,
              ("Z/2", "0"): 0, ("Z/2", "Z/2"): 1, ("Z/2", "Z/4"): 2,
              ("Z/2", "Z/2+Z/2"): 6,
              ("Z/4", "0"): 0, ("Z/4", "Z/2"): 0, ("Z/4", "Z/4"): 2,
              ("Z/4", "Z/2+Z/2"): 0,
              ("Z/2+Z/2", "0"): 0, ("Z/2+Z/2", "Z/2"): 0,
              ("Z/2+Z/2", "Z/4"): 0, ("Z/2+Z/2", "Z/2+Z/2"): 6}


def test_span_counts_vect(v1, v2):
    got = {(x, y): len(all_spans(v1, x, y))
           for x in v1.objects() for y in v1.objects()}
    assert got == VECT21_SPANS
    got2 = {(x, y): len(all_spans(v2, x, y))
            for x in v2.objects() for y in v2.objects()}
    assert got2 == VECT22_SPANS


def test_span_counts_abp(ab4):
    got = {(ab4.label(x), ab4.label(y)): len(all_spans(ab4, x, y))
           for x in ab4.objects() for y in ab4.objects()}
    assert got == ABP4_SPANS


def _orbit_span_count(inst, x, y):
    """Oracle: leg pairs (e: U ->> x, m: U >-> y) counted up to
    automorphisms of the apex U."""
    total = 0
    for u in inst.objects():
        autos = [f for f in inst.hom(u, u)
                 if inst.is_mono(f) and inst.is_epi(f)]
        pairs = {(e.rows, m.rows)
                 for e in inst.epis(u, x) for m in inst.monos(u, y)}
        seen = set()
        for pair in sorted(pairs):
            if pair in seen:
                continue
            total += 1
            for phi in autos:
                e2 = inst.compose(Mor(u, x, pair[0]), phi)
                m2 = inst.compose(Mor(u, y, pair[1]), phi)
                seen.add((e2.rows, m2.rows))
    return total


def test_span_counts_match_orbit_oracle():
    for q in (2, 3):
        inst = VectInstance(q, 1)
        for x in inst.objects():
            for y in inst.objects():
                assert len(all_spans(inst, x, y)) == \
                    _orbit_span_count(inst, x, y)


def sum_filter_spans(inst, x, y):
    """The span classes from x to y by the enumeration that the mono-side
    one replaced: every subgroup of x + y whose graph has a surjective
    left leg and an injective right leg, in Hermite-key order.  Returns
    the member sets."""
    moduli = inst.moduli_of(x) + inst.moduli_of(y)
    graphs = [sub for sub in reference_all_subgroups(moduli)
              if _graph_ok(inst, x, y, sub)[0]]
    return tuple(sorted(graphs, key=lambda sub: zmod.subgroup_key(moduli, sub)))


@pytest.mark.parametrize("descriptor",
                         ["abp:2:4", "abp:3:9", "vect:2:2", "abp:2:8"])
def test_all_spans_matches_the_sum_filter_oracle(descriptor):
    inst = parse_instance(descriptor)
    total = 0
    for x in inst.objects():
        for y in inst.objects():
            got = all_spans(inst, x, y)
            assert all((s.src, s.dst) == (x, y) for s in got)
            assert tuple(span_members(inst, s) for s in got) == \
                sum_filter_spans(inst, x, y)
            total += len(got)
    assert total == {"abp:2:4": 28, "abp:3:9": 88, "vect:2:2": 21,
                     "abp:2:8": 393}[descriptor]


def test_f3_line_has_two_self_spans():
    inst = VectInstance(3, 1)
    spans = all_spans(inst, 1, 1)
    assert len(spans) == 2
    ident = identity_span(inst, 1)
    assert ident in spans
    other = next(s for s in spans if s != ident)
    # scaling by 2 squares to the identity mod 3
    assert span_compose(inst, other, other) == ident


def test_span_canonical_form_is_idempotent(ab4):
    # members -> table round trip
    for x in ab4.objects():
        for y in ab4.objects():
            for s in all_spans(ab4, x, y):
                members = span_members(ab4, s)
                assert span_from_members(ab4, x, y, members) == s


def reference_span_compose(inst, t, s):
    """t after s by the Hermite-key path: each span's members are rebuilt
    by closure from the Hermite basis of its graph subgroup, the relations
    are composed, and the composite is Hermite-reduced and closed again.
    Returns the composite's member set."""
    def via_key(x, y, members):
        moduli = inst.moduli_of(x) + inst.moduli_of(y)
        key = zmod.subgroup_key(moduli, members)
        gens = [tuple(c % m for c, m in zip(row, moduli)) for row in key]
        return closure(moduli, gens)

    nx = len(inst.moduli_of(s.src))
    ny = len(inst.moduli_of(s.dst))
    by_middle = {}
    for w in via_key(t.src, t.dst, span_members(inst, t)):
        by_middle.setdefault(w[:ny], []).append(w[ny:])
    members = {(*u[:nx], *z)
               for u in via_key(s.src, s.dst, span_members(inst, s))
               for z in by_middle.get(u[nx:], ())}
    return via_key(s.src, t.dst, members)


@pytest.mark.parametrize("descriptor", ["abp:2:4", "abp:3:9", "vect:2:2"])
def test_span_compose_matches_the_hermite_key_oracle(descriptor):
    inst = parse_instance(descriptor)
    objs = inst.objects()
    spans = {(x, y): all_spans(inst, x, y) for x in objs for y in objs}
    pairs = 0
    for (x, y), ss in spans.items():
        for z in objs:
            for s in ss:
                for t in spans[(y, z)]:
                    got = span_compose(inst, t, s)
                    assert (got.src, got.dst) == (x, z)
                    assert span_members(inst, got) == \
                        reference_span_compose(inst, t, s)
                    pairs += 1
    assert pairs > 0


def test_span_legs_round_trip(ab4, v2):
    # the legs are the ones all_spans built the class from: V >-> y for a
    # subgroup V of y, and an epi V ->> x
    for inst in (ab4, v2):
        for x in inst.objects():
            for y in inst.objects():
                for s in all_spans(inst, x, y):
                    w, e, m = span_legs(inst, s)
                    assert (e.src, e.dst, m.src, m.dst) == (w, x, w, y)
                    assert inst.is_epi(e) and inst.is_mono(m)
                    assert span_from_legs(inst, e, m) == s


def test_span_legs_lists_the_pair_on_a_fresh_instance():
    inst = AbPInstance(2, 4)
    s = span_from_legs(inst, inst.identity((1,)), Mor((1,), (2,), ((2,),)))
    w, e, m = span_legs(inst, s)
    assert inst._spans.keys() == {((1,), (2,))}
    assert span_from_legs(inst, e, m) == s


def test_span_legs_rejects_a_graph_that_is_no_class(ab4):
    # the graph {(0, 0)} of this table is a subgroup of Z/2 + Z/2, but its
    # left leg misses the generator of Z/2
    bogus = Span((1,), (1,), (0, -1))
    with pytest.raises(ValueError, match=r"is no span class of abp:2:4"):
        span_legs(ab4, bogus)


def test_span_composition_unital_and_associative(v1, ab4):
    for inst in (v1, ab4):
        objs = inst.objects()
        spans = {(x, y): all_spans(inst, x, y) for x in objs for y in objs}
        for (x, y), ss in spans.items():
            for s in ss:
                assert span_compose(inst, s, identity_span(inst, x)) == s
                assert span_compose(inst, identity_span(inst, y), s) == s
        triples = 0
        for x in objs:
            for y in objs:
                for z in objs:
                    for w in objs:
                        for s in spans[(x, y)]:
                            for t in spans[(y, z)]:
                                for u in spans[(z, w)]:
                                    lhs = span_compose(
                                        inst, u, span_compose(inst, t, s))
                                    rhs = span_compose(
                                        inst, span_compose(inst, u, t), s)
                                    assert lhs == rhs
                                    triples += 1
        assert triples > 0


def test_direct_sum_is_a_biproduct():
    ab8 = AbPInstance(2, 8)
    x, y = (1,), (2,)
    s, i1, i2, p1, p2 = direct_sum(ab8, x, y)
    assert s == (2, 1)
    assert ab8.compose(p1, i1) == ab8.identity(x)
    assert ab8.compose(p2, i2) == ab8.identity(y)
    zero_rows = tuple(tuple(0 for _ in ab8.moduli_of(y))
                      for _ in ab8.moduli_of(x))
    assert ab8.compose(p1, i2) == Mor(y, x, zero_rows)


def test_direct_sum_overflow_is_guarded(v2, ab4):
    with pytest.raises(GuardError):
        direct_sum(v2, 1, 2)
    with pytest.raises(GuardError):
        direct_sum(ab4, (2,), (1,))


def test_kernel_and_cokernel(ab4):
    q = Mor((2,), (1,), ((1,),))  # Z/4 ->> Z/2
    k, incl = ab4.kernel(q)
    assert k == (1,)
    assert incl.rows == ((2,),)
    i = Mor((1,), (2,), ((2,),))  # Z/2 >-> Z/4
    c, proj = ab4.cokernel(i)
    assert c == (1,)
    # the composite around the SES is zero
    z = ab4.compose(proj, i)
    assert all(all(v == 0 for v in row) for row in z.rows)


def _is_zero(f: Mor) -> bool:
    return not any(any(row) for row in f.rows)


@pytest.mark.parametrize("descriptor", ["abp:2:4", "abp:3:9", "vect:2:2"])
def test_kernel_and_cokernel_of_every_morphism(descriptor):
    inst = parse_instance(descriptor)
    objs = inst.objects()
    homs = {(x, y): set(inst.hom(x, y)) for x in objs for y in objs}
    for (x, y), fs in homs.items():
        for f in fs:
            image = len({inst.apply(f, v) for v in inst.elements(x)})
            k, incl = inst.kernel(f)
            assert incl in homs[(k, x)]  # well defined, reduced entries
            assert inst.is_mono(incl)
            assert _is_zero(inst.compose(f, incl))
            assert inst.order(k) * image == inst.order(x)
            c, proj = inst.cokernel(f)
            assert proj in homs[(y, c)]
            assert inst.is_epi(proj)
            assert _is_zero(inst.compose(proj, f))
            assert inst.order(c) * image == inst.order(y)


def test_every_ambigressive_pushout_is_bicartesian(ab4):
    objs = ab4.objects()
    checked = 0
    for y in objs:
        monos = [i for u in objs for i in ab4.monos(y, u)]
        epis = [e for v in objs for e in ab4.epis(y, v)]
        for i in monos:
            for e in epis:
                assert bicartesian_check(ab4, ambigressive_pushout(ab4, i, e))
                checked += 1
    assert checked > 0


def test_pullback_of_mod2_along_identity_is_cyclic(ab4):
    e = Mor((2,), (1,), ((1,),))
    sq = ambigressive_pullback(ab4, ab4.identity((1,)), e)
    assert sq.nw == (2,)
    assert is_pullback_square(ab4, sq)
    assert bicartesian_check(ab4, sq)


def test_pullback_along_iso_recovers_source(ab4):
    i = Mor((1,), (2,), ((2,),))
    sq = ambigressive_pullback(ab4, i, ab4.identity((2,)))
    assert sq.nw == (1,)


def _pullback_graph(inst: Instance, sq: Square) -> set:
    """The pullback W as the pairs (top(w), left(w)) inside ne + sw."""
    return {(inst.apply(sq.top, w), inst.apply(sq.left, w))
            for w in inst.elements(sq.nw)}


@pytest.mark.parametrize("descriptor,cospans", [
    ("abp:2:4", 82), ("vect:2:2", 71), ("abp:3:9", 2830)])
def test_ambigressive_pullback_matches_the_member_listing_it_replaced(
        descriptor, cospans):
    # same apex, same graph W inside U + V; the legs may differ by an
    # automorphism of the apex
    inst = parse_instance(descriptor)
    objs = inst.objects()
    checked = 0
    for y in objs:
        epis = [e for v in objs for e in inst.epis(v, y)]
        for i in (i for u in objs for i in inst.monos(u, y)):
            for e in epis:
                got = ambigressive_pullback(inst, i, e)
                want = reference_ambigressive_pullback(inst, i, e)
                assert got.nw == want.nw
                assert _pullback_graph(inst, got) == \
                    _pullback_graph(inst, want)
                checked += 1
    assert checked == cospans


def test_a_pullback_graph_that_is_no_span_class_raises():
    message = "ambigressive pullback: no span class {} <<- W >-> {} " \
              "has the pullback graph"
    # with every map taken for a mono, the reduction Z/4 -> Z/2 passes
    # the leg check; its pullback along the identity of Z/2 is the graph
    # of no partial map Z/2 -> Z/4
    inst = AbPInstance(2, 4)
    inst.is_mono = lambda f: True
    reduce = Mor((2,), (1,), ((1,),))
    with pytest.raises(ValueError, match=message.format("Z/4", "Z/2")):
        ambigressive_pullback(inst, reduce, inst.identity((1,)))
    # with every map taken for an epi once the classes Z/4 <<- W >-> Z/2
    # are listed, Z/2 -> Z/4 (times 2) passes; its pullback along the
    # identity of Z/4 is the graph of b -> 2b, which no class has
    inst = AbPInstance(2, 4)
    all_spans(inst, (2,), (1,))
    inst.is_epi = lambda f: True
    twice = Mor((1,), (2,), ((2,),))
    with pytest.raises(ValueError, match=message.format("Z/4", "Z/2")):
        ambigressive_pullback(inst, inst.identity((2,)), twice)


def test_pushout_examples(ab4):
    i = Mor((1,), (2,), ((2,),))
    po = ambigressive_pushout(ab4, i, ab4.identity((1,)))
    assert po.se == (2,)
    collapse = Mor((1,), ab4.zero_object(), ())
    po2 = ambigressive_pushout(ab4, i, collapse)
    assert po2.se == (1,)
    assert is_pushout_square(ab4, po2)
    assert bicartesian_check(ab4, po2)


def test_ambigressive_squares_that_do_not_commute_raise(ab4, monkeypatch):
    monkeypatch.setattr(exact, "square_commutes", lambda inst, sq: False)
    i = Mor((1,), (2,), ((2,),))
    with pytest.raises(ValueError, match="pullback: square does not commute"):
        ambigressive_pullback(ab4, i, ab4.identity((2,)))
    with pytest.raises(ValueError, match="pushout: square does not commute"):
        ambigressive_pushout(ab4, i, ab4.identity((1,)))


def test_ses_square_is_bicartesian(ab4):
    i = Mor((1,), (2,), ((2,),))
    q = Mor((2,), (1,), ((1,),))
    z = ab4.zero_object()
    ses = Square(top=i, left=Mor((1,), z, ()), right=q,
                 bottom=Mor(z, (1,), ((),)))
    assert bicartesian_check(ab4, ses)


def test_identity_square_is_bicartesian(ab4):
    idm = ab4.identity((2,))
    assert bicartesian_check(ab4, Square(idm, idm, idm, idm))


def test_degenerate_square_is_not_bicartesian(v2):
    proj1 = Mor(2, 1, ((1, 0),))
    bad = Square(top=proj1, left=proj1,
                 right=v2.identity(1), bottom=v2.identity(1))
    assert not is_pullback_square(v2, bad)
    assert not bicartesian_check(v2, bad)


def test_all_exact_sequence_fixtures_are_bicartesian(v2, ab4):
    for inst in (v2, ab4):
        squares = exact_sequence_squares(inst)
        assert squares
        assert all(bicartesian_check(inst, sq) for sq in squares)


def test_verify_triple_passes(v2, ab4):
    for inst in (v2, ab4):
        report = verify_triple(inst)
        assert report.passed, report.failures
        assert report.squares_checked > 0


def test_verify_triple_passes_on_larger_abelian_instance():
    report = verify_triple(AbPInstance(2, 8))
    assert report.passed, report.failures
    assert report.squares_checked == 37443


CORRUPTED_REPORTS = {
    "abp:2:4": (14, (
        "i: 0>->Z/2, e: 0->>Z/2: size identity fails",
        "i: 0>->Z/2, e: Z/2->>Z/2: size identity fails",
        "i: 0>->Z/2, e: Z/2+Z/2->>Z/2: size identity fails",
        "i: 0>->Z/2, e: Z/4->>Z/2: size identity fails",
        "i: Z/2>->Z/2, e: 0->>Z/2: pulled-back epi is not epi")),
    "vect:2:2": (12, (
        "i: 0>->F^1, e: 0->>F^1: size identity fails",
        "i: 0>->F^1, e: F^1->>F^1: size identity fails",
        "i: 0>->F^1, e: F^2->>F^1: size identity fails",
        "i: F^1>->F^1, e: 0->>F^1: pulled-back epi is not epi",
        "i: F^1>->F^1, e: F^1->>F^1: pulled-back epi is not epi")),
}


def test_verify_triple_rejects_corrupted_egressives():
    # the exact report pins the loop order (y, u, mono, v, epi) and the
    # early return at five failures
    for descriptor, (squares, failures) in CORRUPTED_REPORTS.items():
        inst = parse_instance(descriptor)
        inst.epis = inst.hom
        report = verify_triple(inst)
        assert report == TripleReport(False, squares, failures), descriptor


def reference_verify_triple(inst):
    """The member-listing verify_triple: lists each fiber product and
    types it by its element orders."""
    objs = inst.objects()
    bounded = set(objs)
    failures = []
    checked = 0
    for y in objs:
        y_order = inst.order(y)
        epis = []
        for v in objs:
            v_els = inst.elements(v)
            for e in inst.epis(v, y):
                fibers = {}
                for w in v_els:
                    fibers.setdefault(inst.apply(e, w), []).append(w)
                epis.append((v, v_els, fibers))
        for u in objs:
            u_els = inst.elements(u)
            for i in inst.monos(u, y):
                i_im = [(x, inst.apply(i, x)) for x in u_els]
                for v, v_els, fibers in epis:
                    checked += 1
                    members = [(x, w) for x, im in i_im
                               for w in fibers.get(im, ())]
                    problems = []
                    if len(members) * y_order != len(u_els) * len(v_els):
                        problems.append("size identity fails")
                    if {m[0] for m in members} != set(u_els):
                        problems.append("pulled-back epi is not epi")
                    zero_v = zmod.zero(inst.moduli_of(v))
                    if sum(1 for m in members if m[1] == zero_v) != 1:
                        problems.append("pulled-back mono is not mono")
                    flat = [x + w for x, w in members]
                    moduli = inst.moduli_of(u) + inst.moduli_of(v)
                    struct = structure_of(moduli, flat, inst.p)
                    try:
                        w_obj = inst.object_of_structure(struct)
                    except ValueError:
                        w_obj = None
                    if w_obj is None or w_obj not in bounded:
                        problems.append("pullback escapes bounds")
                    if problems:
                        where = (f"i: {inst.label(u)}>->{inst.label(y)}, "
                                 f"e: {inst.label(v)}->>{inst.label(y)}")
                        failures.extend(f"{where}: {why}" for why in problems)
                        if len(failures) >= 5:
                            return TripleReport(False, checked,
                                                tuple(failures))
    return TripleReport(not failures, checked, tuple(failures))


# each corrupts the leg classes of its own fresh instance
TRIPLE_CLASSES = {
    "honest": lambda inst: None,
    "all maps egressive": lambda inst: setattr(inst, "epis", inst.hom),
    "all maps ingressive": lambda inst: setattr(inst, "monos", inst.hom),
}


@pytest.mark.parametrize("classes", sorted(TRIPLE_CLASSES))
@pytest.mark.parametrize("descriptor",
                         ["abp:2:4", "vect:2:2", "abp:3:9", "vect:3:2"])
def test_verify_triple_matches_the_member_listing_oracle(descriptor, classes):
    inst = parse_instance(descriptor)
    TRIPLE_CLASSES[classes](inst)
    report = verify_triple(inst)
    assert report == reference_verify_triple(inst)
    # a mono leg that is any map lets W outgrow every object
    escapes = sum(f.endswith("pullback escapes bounds") for f in report.failures)
    assert (escapes > 0) == (classes == "all maps ingressive")


def test_verify_triple_keys_each_map_once(monkeypatch):
    """`monos` and `epis` walk the same hom sets and keep each one's image
    indices, so verify_triple runs one Hermite key per map of abp:3:9
    (142), not one per map and class (284)."""
    calls = []
    key = zmod.subgroup_key
    monkeypatch.setattr(zmod, "subgroup_key",
                        lambda *args: calls.append(args) or key(*args))
    inst = AbPInstance(3, 9)
    report = verify_triple(inst)
    maps = sum(len(inst.hom(u, y)) for u in inst.objects()
               for y in inst.objects())
    assert report.passed and len(calls) == maps == 142


@pytest.mark.parametrize("descriptor", ["abp:2:8", "abp:3:9", "vect:3:2"])
def test_kept_indices_give_the_per_map_classes(descriptor):
    inst = parse_instance(descriptor)
    for x in inst.objects():
        for y in inst.objects():
            for _ in range(2):   # computed, then read back
                assert inst.monos(x, y) == [f for f in inst.hom(x, y)
                                            if inst.is_mono(f)]
                assert inst.epis(x, y) == [f for f in inst.hom(x, y)
                                           if inst.is_epi(f)]


@pytest.mark.parametrize("descriptor", ["abp:2:4", "abp:2:8", "abp:3:9",
                                        "abp:5:25", "vect:2:2", "vect:3:2",
                                        "vect:5:2"])
def test_killed_counts_type_every_object(descriptor):
    """The premise of verify_triple's bounds check: the number of elements
    each p^k kills fixes an object's type, so the objects' count vectors
    are pairwise distinct and each reads back to its object's exponents."""
    inst = parse_instance(descriptor)
    ords = {x: zmod.order_exps(inst.moduli_of(x), inst.elements(x), inst.p)
            for x in inst.objects()}
    top = max(max(o) for o in ords.values())
    killed = {x: tuple(sum(o <= k for o in ords[x]) for k in range(top + 1))
              for x in ords}
    assert len(set(killed.values())) == len(killed)
    for x, counts in killed.items():
        assert structure_from_killed(counts, inst.p) == exps_of(inst, x), x


def test_parse_instance():
    inst = parse_instance("vect:2:1")
    assert isinstance(inst, VectInstance) and (inst.q, inst.d) == (2, 1)
    inst = parse_instance("abp:3:9")
    assert isinstance(inst, AbPInstance) and (inst.p, inst.bound) == (3, 9)
    for bad in ("vect:2", "ring:2:2", "vect:two:1", "vect:4:1"):
        with pytest.raises(ValueError):
            parse_instance(bad)
