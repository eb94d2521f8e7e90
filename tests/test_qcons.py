"""Span category, class-group extraction, ambigressive diagrams."""

import hashlib
import json

import pytest

from qcat import errors, fincat, qcons, zmod
from qcat.cli import main
from qcat.errors import GuardError
from qcat.exact import (
    AbPInstance,
    Instance,
    Mor,
    Square,
    VectInstance,
    all_spans,
    bicartesian_check,
    identity_span,
    parse_instance,
    pullback_legs,
    span_compose,
    span_from_legs,
    span_legs,
    square_commutes,
)
from qcat.fincat import nerve
from qcat.qcons import AmbigressiveDiagram
from qcat.simpset import LevelModel
from span_oracles import span_from_members, span_members


# -- diagram checks only the tests use --------------------------------------


def egressive_to(d: AmbigressiveDiagram, inst: Instance, i: int, j: int,
                 l: int) -> Mor:
    f = inst.identity(d.objects[(i, j)])
    for col in range(j, l, -1):
        f = inst.compose(d.epis[(i, col)], f)
    return f


def ingressive_to(d: AmbigressiveDiagram, inst: Instance, i: int, j: int,
                  k: int) -> Mor:
    f = inst.identity(d.objects[(i, j)])
    for row in range(i, k):
        f = inst.compose(d.monos[(row, j)], f)
    return f


def check_diagram(inst: Instance, d: AmbigressiveDiagram) -> list[str]:
    """Exhaustive invariant check: leg admissibility and every interior
    square bicartesian.  Returns problem descriptions, [] when clean."""
    problems = []
    for (i, j), e in d.epis.items():
        if not inst.is_epi(e):
            problems.append(f"step X_{i}{j} -> X_{i}{j - 1} is not egressive")
    for (i, j), m in d.monos.items():
        if not inst.is_mono(m):
            problems.append(f"step X_{i}{j} -> X_{i + 1}{j} is not ingressive")
    if problems:
        return problems
    for i in range(d.n + 1):
        for k in range(i + 1, d.n + 1):
            for l in range(k, d.n + 1):
                for j in range(l + 1, d.n + 1):
                    sq = Square(
                        top=egressive_to(d, inst, i, j, l),
                        left=ingressive_to(d, inst, i, j, k),
                        right=ingressive_to(d, inst, i, l, k),
                        bottom=egressive_to(d, inst, k, j, l))
                    if not square_commutes(inst, sq):
                        problems.append(
                            f"square ({i},{k},{l},{j}) does not commute")
                    elif not bicartesian_check(inst, sq):
                        problems.append(
                            f"square ({i},{k},{l},{j}) is not bicartesian")
    return problems


@pytest.fixture(scope="module")
def v1():
    return VectInstance(2, 1)


@pytest.fixture(scope="module")
def v2():
    return VectInstance(2, 2)


@pytest.fixture(scope="module")
def ab4():
    return AbPInstance(2, 4)


@pytest.fixture(scope="module")
def qv1(v1):
    return qcons.q_category(v1)


def test_hom_counts_line_over_f2(qv1):
    c = qv1.category
    got = {(x, y): len(c.hom(x, y)) for x in c.objects for y in c.objects}
    assert got == {(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 1}


def test_hom_counts_line_over_f3():
    c = qcons.q_category(VectInstance(3, 1)).category
    got = {(x, y): len(c.hom(x, y)) for x in c.objects for y in c.objects}
    # the two self-spans of the line differ by the scaling not fixing
    # both legs, so they are distinct classes
    assert got == {(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 2}


def test_zero_instance_gives_terminal_category():
    qc = qcons.q_category(VectInstance(2, 0))
    assert len(qc.category.objects) == 1
    assert len(qc.category.morph) == 1
    rep = qcons.k0(VectInstance(2, 0))
    assert (rep.betti, rep.torsion) == (0, ())
    assert rep.label == "0"


def test_composition_table_is_span_composition(qv1, v1):
    c = qv1.category
    for (g, f), gf in c.compose_table.items():
        expect = span_compose(v1, qv1.span_of[g], qv1.span_of[f])
        assert qv1.span_of[gf] == expect


# sha256 of the sorted composition table and of the sorted name -> span
# map, each recorded from a build in a process of its own
TABLE_DIGESTS = {
    "abp:2:4": ("3c64de64530b4a9a587127abf9763151b0e80f23b1546f8d413ff63c7953275b",
                "856da4dd43a03dcf1e0f7a304570281677e41d92b9ea4b5249e57b83f27cda68"),
    "abp:3:9": ("e15a7bdf9d8320cc43485e27d88d2aac0a4744164db01e32a3679736d8f9edc8",
                "13974a5eb6ba02e6d85b858f4965847df6325975d71483c9eb200c21e33ff0e6"),
}


class _KeyedSpan:
    """Reprs a span as `Span(src->dst, key)`, with key the Hermite basis
    of its members, so that the digests above keep the form they were
    recorded in."""

    def __init__(self, inst, span):
        moduli = inst.moduli_of(span.src) + inst.moduli_of(span.dst)
        key = zmod.subgroup_key(moduli, span_members(inst, span))
        self.text = f"Span({span.src!r}->{span.dst!r}, {key!r})"

    def __repr__(self):
        return self.text


def _digests(qc):
    keyed = {name: _KeyedSpan(qc.instance, s) for name, s in qc.span_of.items()}
    return tuple(hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
                 for table in (qc.category.compose_table, keyed))


def test_instance_caches_stay_with_their_instance():
    # abp:2:4 and abp:3:9 share object tuples such as (1,), which is Z/2
    # in one and Z/3 in the other: a cache keyed by object or by span
    # alone would hand the later builds the wrong groups
    ab = AbPInstance(2, 4)
    first = qcons.q_category(ab)
    odd = qcons.q_category(AbPInstance(3, 9))
    warm = qcons.q_category(ab)
    again = qcons.q_category(AbPInstance(2, 4))
    for qc in (first, warm, again):
        assert _digests(qc) == TABLE_DIGESTS["abp:2:4"]
    assert _digests(odd) == TABLE_DIGESTS["abp:3:9"]


def _spans_and_legs(inst):
    objs = inst.objects()
    spans = {(x, y): all_spans(inst, x, y) for x in objs for y in objs}
    return spans, [span_legs(inst, s) for ss in spans.values() for s in ss]


def test_span_order_does_not_depend_on_the_subgroup_listing(monkeypatch):
    # all_spans sorts by the Hermite key of each graph subgroup W, so the
    # order in which the subgroups of a target are listed cannot matter
    want = {desc: _spans_and_legs(parse_instance(desc))
            for desc in ("abp:2:8", "vect:2:3")}
    real = zmod.all_subgroups
    monkeypatch.setattr(zmod, "all_subgroups",
                        lambda moduli: real(moduli)[::-1])
    for desc, spans in want.items():
        assert _spans_and_legs(parse_instance(desc)) == spans
    assert _digests(qcons.q_category(AbPInstance(2, 4))) == \
        TABLE_DIGESTS["abp:2:4"]


def test_q_category_rejects_an_instance_failing_triple_verification():
    inst = AbPInstance(2, 4)
    inst.epis = inst.hom
    with pytest.raises(ValueError, match="instance fails triple verification"):
        qcons.q_category(inst)


def test_k0_of_line_is_z(qv1, v1):
    # complete nerve: the only nonidentity morphisms are the two
    # parallel edges 0 => F, so the nerve is a circle
    rep = qcons.k0(v1)
    assert rep.label == "Z"
    assert (rep.betti, rep.torsion) == (1, ())
    assert len(rep.raw_presentation.generators) == 1
    assert rep.raw_presentation.relators == ()


def test_k0_needs_two_skeleton(v1):
    with pytest.raises(ValueError, match="dimension 2"):
        qcons.k0(v1, depth=1)


def test_k0_regressions_at_depth_three(v2, ab4):
    # frozen after first machine computation; both instances have a
    # single simple object so the class group is infinite cyclic
    assert qcons.k0(v2, depth=3).label == "Z"
    assert qcons.k0(ab4, depth=3).label == "Z"


@pytest.mark.parametrize("descriptor", ["abp:2:4", "vect:2:2", "abp:3:9"])
def test_k0_report_is_the_depth_two_report_at_any_depth(capsys, descriptor):
    # pi_1 reads the 2-skeleton only; a deeper --depth is just echoed
    reports = {}
    for depth in (2, 3, 4):
        assert main(["k0", "--instance", descriptor,
                     "--depth", str(depth)]) == 0
        reports[depth] = json.loads(capsys.readouterr().out)
        assert reports[depth].pop("depth") == depth
    assert reports[3] == reports[2]
    assert reports[4] == reports[2]


def test_k0_needs_no_depth_on_any_instance(ab4):
    # the nerve of Q(abp:2:4) has arbitrarily long composable strings, so
    # a complete nerve was never available there
    rep = qcons.k0(ab4)
    assert rep.depth is None
    assert rep.raw_presentation == qcons.k0(ab4, 2).raw_presentation
    assert rep.label == "Z"


def test_k0_compiles_no_nerve(monkeypatch, ab4):
    calls = []
    nerve_model, compile_model = fincat.nerve_model, LevelModel.compile

    def spy_nerve_model(*args, **kwargs):
        calls.append("nerve_model")
        return nerve_model(*args, **kwargs)

    def spy_compile(self):
        calls.append("compile")
        return compile_model(self)

    monkeypatch.setattr(fincat, "nerve_model", spy_nerve_model)
    monkeypatch.setattr(LevelModel, "compile", spy_compile)
    rep = qcons.k0(ab4, depth=4)
    assert calls == []
    assert rep.depth == 4


def test_k0_rejects_a_disconnected_span_category(monkeypatch):
    # without the spans 0 -> X for X != 0 the zero object is isolated:
    # no span X <<- U >-> 0 leaves a nonzero X either
    inst = AbPInstance(2, 4)
    zero = inst.zero_object()
    all_spans = qcons.all_spans

    def spans_without_zero_out(inst, x, y):
        return () if x == zero and y != zero else all_spans(inst, x, y)

    monkeypatch.setattr(qcons, "all_spans", spans_without_zero_out)
    with pytest.raises(ValueError, match="span category is disconnected"):
        qcons.k0(inst)


def test_composition_table_guard_counts_the_pairs_first(monkeypatch, capsys):
    # Q(abp:2:4) has 28 morphisms and 154 composable pairs
    argv = ["k0", "--instance", "abp:2:4", "--depth", "2"]
    monkeypatch.setattr(errors, "SIZE_LIMIT", 153)
    monkeypatch.setattr(qcons, "span_compose", None)   # never reached
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("qcat k0: guard: composition table: 154 composable pairs "
                   "of 28 morphisms, over the limit of 153\n")
    monkeypatch.undo()
    monkeypatch.setattr(errors, "SIZE_LIMIT", 154)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["k0"] == "Z"


def test_nerve_h1_matches_abelianized_pi1(v1, v2, ab4):
    for inst, depth in ((v1, None), (v2, 3), (ab4, 3)):
        ns = nerve(qcons.q_category(inst, verify=False).category, depth)
        betti, torsion = ns.pi1_presentation().abelianization()
        assert ns.homology(1)[1] == (betti, torsion)


def test_abelian_label():
    assert qcons.abelian_label(0, ()) == "0"
    assert qcons.abelian_label(1, ()) == "Z"
    assert qcons.abelian_label(2, (2,)) == "Z^2 + Z/2"


def test_ambigressive_counts_on_the_line(v1):
    assert [len(qcons.enumerate_ambigressive(v1, n)) for n in range(4)] == \
        [2, 4, 6, 8]


def test_ambigressive_guard(v1):
    with pytest.raises(GuardError):
        qcons.enumerate_ambigressive(v1, 4)
    with pytest.raises(ValueError):
        qcons.enumerate_ambigressive(v1, -1)


def test_enumerated_diagrams_pass_the_invariant_check(v1, ab4):
    for inst, tops in ((v1, 3), (ab4, 2)):
        for n in range(tops + 1):
            for d in qcons.enumerate_ambigressive(inst, n):
                assert check_diagram(inst, d) == []


def test_check_diagram_rejects_inadmissible_leg(v1):
    d = qcons.enumerate_ambigressive(v1, 1)[-1]
    assert d.objects[(0, 0)] == 1
    d.epis[(0, 1)] = Mor(1, 1, ((0,),))
    problems = check_diagram(v1, d)
    assert any("not egressive" in p for p in problems)


def test_check_diagram_rejects_size_violating_corner(ab4):
    # X02 = Z/2 sits inside Z/2+Z/2 as a section of the projection, so
    # the square commutes with admissible legs but is too small to be
    # the pullback
    c2, c22 = (1,), (1, 1)
    ident = ab4.identity(c2)
    d = AmbigressiveDiagram(
        2,
        {(0, 0): c2, (1, 1): c2, (2, 2): c22,
         (0, 1): c2, (1, 2): c22, (0, 2): c2},
        {(0, 1): ident,
         (1, 2): Mor(c22, c2, ((1, 0),)),
         (0, 2): ident},
        {(0, 1): ident,
         (1, 2): ab4.identity(c22),
         (0, 2): Mor(c2, c22, ((1,), (0,)))})
    problems = check_diagram(ab4, d)
    assert problems == ["square (0,1,1,2) is not bicartesian"]


SEGAL_CASES = [
    ("vect:2:1", 0, 2), ("vect:2:1", 1, 4), ("vect:2:1", 2, 6),
    ("vect:2:1", 3, 8),
    ("abp:2:4", 0, 4), ("abp:2:4", 1, 28), ("abp:2:4", 2, 154),
    ("abp:2:4", 3, 852),
    ("vect:2:2", 2, 131), ("vect:2:2", 3, 793),
    ("abp:3:9", 2, 3538),
]


@pytest.mark.parametrize("desc,n,count", SEGAL_CASES)
def test_segal_spine_counts(desc, n, count):
    inst = parse_instance(desc)
    rep = qcons.segal_spine_check(inst, n)
    assert rep.passed
    assert rep.diagram_classes == count
    # the count is read off the span graph; the strings it counts are
    # the ones enumerate_ambigressive walks
    assert rep.composable_strings == count == len(spine_strings(inst, n))


def test_segal_builds_the_spine_strings_once(monkeypatch, ab4):
    # the diagrams walk the strings; the string count is read off the
    # same span graph without building them again
    real = fincat.strings
    calls = []

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(fincat, "strings", spy)
    assert qcons.segal_spine_check(ab4, 2).composable_strings == 154
    assert calls == [2]


def test_segal_enumerates_the_subgroups_of_each_object_once(monkeypatch):
    # enumerate_ambigressive walks the spine strings and the string count
    # reads their number off the same span graph; the span classes behind
    # both are enumerated once per pair, from the subgroups of each
    # target, which are listed once per object
    inst = AbPInstance(2, 4)
    calls = []
    real = zmod.all_subgroups

    def spy(moduli):
        calls.append(moduli)
        return real(moduli)

    monkeypatch.setattr(zmod, "all_subgroups", spy)
    rep = qcons.segal_spine_check(inst, 2)
    objects = sorted(inst.moduli_of(y) for y in inst.objects())
    assert (rep.passed, rep.composable_strings) == (True, 154)
    assert sorted(calls) == objects
    # the category built from the tabled spans is the pinned one
    assert _digests(qcons.q_category(inst)) == TABLE_DIGESTS["abp:2:4"]
    assert sorted(calls) == objects


def corner_classes_by_orbit(inst, ne_obj, sw_obj, se_obj, right, bottom,
                            epis_cache, monos_cache, autos_cache):
    """The corner fillers by the search that the span table replaced:
    every epi X ->> ne_obj against every mono X >-> sw_obj on each X of
    the right order, keeping the commuting, jointly injective pairs, one
    per orbit of the automorphisms of X.  Returns (X, e, m) triples."""
    target = inst.order(ne_obj) * inst.order(sw_obj)
    found = []
    for v in inst.objects():
        if inst.order(v) * inst.order(se_obj) != target:
            continue
        v_els = inst.elements(v)
        monos = [(m, inst.compose(bottom, m))
                 for m in monos_cache[(v, sw_obj)]]
        raw = []
        for e in epis_cache[(v, ne_obj)]:
            right_e = inst.compose(right, e)
            for m, bottom_m in monos:
                if right_e != bottom_m:
                    continue
                joint = {(inst.apply(e, u), inst.apply(m, u))
                         for u in v_els}
                if len(joint) == len(v_els):
                    raw.append((e, m))
        seen = set()
        for e, m in raw:
            if (e.rows, m.rows) in seen:
                continue
            found.append((v, e, m))
            for phi in autos_cache[v]:
                seen.add((inst.compose(e, phi).rows,
                          inst.compose(m, phi).rows))
    return found


# one corner per string at n = 2 and three at n = 3, as each corner of a
# spine string has one filler
@pytest.mark.parametrize("desc,n,corners", [
    ("abp:2:4", 2, 154), ("abp:2:4", 3, 3 * 852), ("vect:2:2", 3, 3 * 793)])
def test_corner_fillers_match_the_orbit_search_oracle(monkeypatch, desc, n,
                                                      corners):
    from qcat.exact import parse_instance

    inst = parse_instance(desc)
    objs = inst.objects()
    caches = ({(v, y): inst.epis(v, y) for v in objs for y in objs},
              {(v, y): inst.monos(v, y) for v in objs for y in objs},
              {v: inst.isos(v, v) for v in objs})
    real = qcons.pullback_legs
    filled = []

    def checked(inst_, right, bottom):
        got = real(inst_, right, bottom)
        got_list = [] if got is None else [got]
        corner = (right.src, bottom.src, right.dst, right, bottom)
        want = corner_classes_by_orbit(inst_, *corner, *caches)
        classes = [span_from_legs(inst, e, m) for _, e, m in got_list]
        assert len(set(classes)) == len(got_list) == len(want)
        assert set(classes) == {span_from_legs(inst, e, m)
                                for _, e, m in want}
        filled.append(len(got_list))
        return got

    monkeypatch.setattr(qcons, "pullback_legs", checked)
    assert qcons.segal_spine_check(inst, n).passed
    assert len(filled) == corners
    # the filler of a corner is its pullback, found once
    assert set(filled) == {1}


# -- the spine walk and corner filter that the span table replaced ----------


def reference_spine_strings(inst: Instance, n: int):
    """Composable strings of n span classes, deterministic order.  They
    are level n of the span category's nerve, so each level is counted
    and held to the nerve's level limit before any string is built."""
    objs = inst.objects()
    spans = {(x, y): all_spans(inst, x, y) for x in objs for y in objs}
    arrows = [pair for pair, ss in spans.items() for _ in ss]
    for level, count in zip(range(n + 1), fincat._string_counts(objs, arrows)):
        errors.require("segal spine", count, f"strings at level {level}",
                       errors.SIZE_LIMIT)
    strings = [((x,), ()) for x in objs]
    for _ in range(n):
        nxt = []
        for verts, ss in strings:
            for y in objs:
                for s in spans[(verts[-1], y)]:
                    nxt.append((verts + (y,), ss + (s,)))
        strings = nxt
    return strings


def reference_corner_classes(inst, ne_obj, sw_obj, se_obj, right: Mor,
                             bottom: Mor):
    """All fillers X of the elementary square

            X --e-->  ne_obj
            |m          |right
            v           v
         sw_obj -bottom-> se_obj

    up to an iso of X over both legs, as (X, e, m).  Such a class is a
    span class ne_obj <<- X >-> sw_obj; each one is tried, and it fills
    the corner when |X| |se_obj| = |ne_obj| |sw_obj| and right(a) =
    bottom(b) for every member (a, b) of its graph."""
    target = inst.order(ne_obj) * inst.order(sw_obj)
    se_order = inst.order(se_obj)
    right_of = {a: inst.apply(right, a) for a in inst.elements(ne_obj)}
    bottom_of = {b: inst.apply(bottom, b) for b in inst.elements(sw_obj)}
    nx = len(inst.moduli_of(ne_obj))
    graphs = {s: span_members(inst, s) for s in all_spans(inst, ne_obj, sw_obj)}
    return [span_legs(inst, s) for s, members in graphs.items()
            if len(members) * se_order == target
            and all(right_of[w[:nx]] == bottom_of[w[nx:]] for w in members)]


def spine_strings(inst: Instance, n: int):
    """The spine strings that `enumerate_ambigressive` walks: level n of
    the nerve of the span graph, as tuples of spans."""
    return fincat.strings(inst.objects(), qcons._span_graph(inst), n,
                          "segal spine")


@pytest.mark.parametrize("desc", ["abp:2:4", "vect:2:2"])
def test_spine_strings_match_the_walk_they_replaced(desc):
    # the spine strings are tuples of spans; their vertices are read off
    # the spans, and level 0 is the objects
    inst = parse_instance(desc)
    for n in range(4):
        got = spine_strings(inst, n)
        if n == 0:
            read = [((x,), ()) for x in got]
        else:
            read = [((s[0].src, *(t.dst for t in s)), s) for s in got]
        assert read == reference_spine_strings(inst, n), n


@pytest.mark.parametrize("desc,n,corners", [
    ("abp:2:4", 2, 154), ("abp:2:4", 3, 3 * 852), ("vect:2:2", 3, 3 * 793),
    ("abp:3:9", 2, 3538)])
def test_corner_fillers_match_the_member_test_they_replaced(monkeypatch, desc,
                                                            n, corners):
    inst = parse_instance(desc)
    real = qcons.pullback_legs
    filled = []

    def checked(inst_, right, bottom):
        got = real(inst_, right, bottom)
        got_list = [] if got is None else [got]
        assert got_list == reference_corner_classes(
            inst_, right.src, bottom.src, right.dst, right, bottom)
        filled.append(len(got_list))
        return got

    monkeypatch.setattr(qcons, "pullback_legs", checked)
    assert qcons.segal_spine_check(inst, n).passed
    assert len(filled) == corners
    assert set(filled) == {1}


def test_a_corner_under_a_bottom_that_is_not_epi_has_no_filler(ab4):
    # right = bottom = 2: Z/2 >-> Z/4 misses the generator of Z/4, yet
    # the pullback graph {(a, b) : 2a = 2b} is the identity class's graph;
    # it has 2 members where a filler needs |Z/2| |Z/2| / |Z/4| = 1
    z2, z4 = (1,), (2,)
    twice = Mor(z2, z4, ((2,),))
    assert not ab4.is_epi(twice)
    graph = {(a, b) for (a,) in ab4.elements(z2) for (b,) in ab4.elements(z2)
             if 2 * a % 4 == 2 * b % 4}
    assert span_from_members(ab4, z2, z2, graph) == identity_span(ab4, z2)
    assert pullback_legs(ab4, twice, twice) is None
    assert reference_corner_classes(ab4, z2, z2, z4, twice, twice) == []


def reference_enumerate_ambigressive(inst: Instance, n: int):
    """The diagrams of size n grown as lists of partial diagrams, each
    cell's fillers copied into a fresh diagram: the loop that the
    in-place fill replaced, with corner fillers from the member test."""
    if n == 0:
        return [AmbigressiveDiagram(0, {(0, 0): x}, {}, {})
                for x in inst.objects()]
    out = []
    for spine in spine_strings(inst, n):
        verts = (spine[0].src, *(s.dst for s in spine))
        partials = [AmbigressiveDiagram(
            n, {(i, i): v for i, v in enumerate(verts)}, {}, {})]
        for dist in range(1, n + 1):
            for i in range(0, n - dist + 1):
                j = i + dist
                grown = []
                for d in partials:
                    if dist == 1:
                        fillers = [span_legs(inst, spine[i])]
                    else:
                        fillers = reference_corner_classes(
                            inst, d.objects[(i, j - 1)], d.objects[(i + 1, j)],
                            d.objects[(i + 1, j - 1)], d.monos[(i, j - 1)],
                            d.epis[(i + 1, j)])
                    for v, e, m in fillers:
                        d2 = AmbigressiveDiagram(
                            n, dict(d.objects), dict(d.epis), dict(d.monos))
                        d2.objects[(i, j)] = v
                        d2.epis[(i, j)] = e
                        d2.monos[(i, j)] = m
                        grown.append(d2)
                partials = grown
        out.extend(partials)
    return out


def _diagram_items(d: AmbigressiveDiagram):
    return (d.n, list(d.objects.items()), list(d.epis.items()),
            list(d.monos.items()))


@pytest.mark.parametrize("desc,n", [
    *(("abp:2:4", n) for n in range(4)), *(("vect:2:1", n) for n in range(4)),
    ("vect:2:2", 3), ("abp:3:9", 2)])
def test_diagrams_match_the_partial_list_loop_they_replaced(desc, n):
    # same diagrams, same order, same dict insertion order
    inst = parse_instance(desc)
    got = [_diagram_items(d) for d in qcons.enumerate_ambigressive(inst, n)]
    want = [_diagram_items(d)
            for d in reference_enumerate_ambigressive(inst, n)]
    assert got == want


def test_a_corner_without_a_filler_fails_the_segal_check(monkeypatch, capsys,
                                                         ab4):
    # withhold the filler of the square of identities on Z/2: the spines
    # through it are the 2 spans into Z/2 with identity mono leg, times the
    # 1 + 1 + 3 spans out of Z/2 with identity epi leg into Z/2, Z/4 and
    # Z/2+Z/2
    ident = ab4.identity((1,))
    real = qcons.pullback_legs
    dropped = []

    def without(inst_, right, bottom):
        if (right, bottom) == (ident, ident):
            dropped.append(right)
            return None
        return real(inst_, right, bottom)

    monkeypatch.setattr(qcons, "pullback_legs", without)
    rep = qcons.segal_spine_check(ab4, 2)
    assert len(dropped) == 10
    assert (rep.diagram_classes, rep.composable_strings) == (154 - 10, 154)
    assert not rep.passed
    # a negative verdict is data, not an error
    assert main(["segal", "--instance", "abp:2:4", "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["diagram_classes"], report["passed"]) == (144, False)


def test_segal_spine_guard_reads_the_nerve_level_limit(monkeypatch, ab4):
    # level 2 of the spine of Q(abp:2:4) holds 154 strings
    monkeypatch.setattr(errors, "SIZE_LIMIT", 154)
    assert qcons.segal_spine_check(ab4, 2).composable_strings == 154
    monkeypatch.setattr(errors, "SIZE_LIMIT", 153)
    with pytest.raises(GuardError, match="^segal spine: 154 strings at level "
                                         "2, over the limit of 153$"):
        qcons.segal_spine_check(ab4, 2)


def test_groupoid_rigidity_exhaustive(v1, v2, ab4):
    for inst in (v1, v2, ab4):
        for x in inst.objects():
            for y in inst.objects():
                rep = qcons.groupoid_rigidity(inst, x, y)
                assert rep.passed, (inst.describe(), x, y, rep.failures)


def test_groupoid_shapes(v2, ab4):
    rep = qcons.groupoid_rigidity(v2, 2, 2)
    assert rep.objects == 36
    # components correspond to span classes
    assert rep.components == 6
    assert qcons.groupoid_rigidity(ab4, (2,), (1,)).objects == 0
    rep0 = qcons.groupoid_rigidity(v2, 0, 0)
    assert (rep0.objects, rep0.components) == (1, 1)
