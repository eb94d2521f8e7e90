from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcat import simpset
from qcat.delta import (EDGEWISE, edgewise_structure_map, parse_word,
                        pullback_model)
from qcat.exact import AbPInstance, VectInstance
from qcat.fincat import nerve_map, nerve_model, twisted_projection
from qcat.formats import load_category
from qcat.ordmaps import DeltaMap, all_maps
from qcat.presentation import GroupPresentation
from qcat.qcons import q_category
from qcat.simpset import (
    LevelModel,
    SimplicialMap,
    SimplicialSet,
    compose_words,
    contractibility,
    left_fibration_check,
    op_word,
    product,
    product_model,
    simplicial_set_from_triangulation,
    standard_simplex,
)
from word_oracles import (per_letter_action, reference_compose_words,
                          reference_face, reference_op_word)


# -- spaces and maps only the tests use -----------------------------------


def boundary_of_simplex(m: int) -> SimplicialSet:
    full = standard_simplex(m)
    dims = {x: n for x, n in full.dims.items() if n < m}
    faces = {x: full.faces[x] for x in dims if dims[x] > 0}
    return SimplicialSet(dims, faces, None)


def disjoint_union(x: SimplicialSet, y: SimplicialSet) -> SimplicialSet:
    def tag(side, s):
        return (side, s)

    dims = {tag(0, s): n for s, n in x.dims.items()}
    dims.update({tag(1, s): n for s, n in y.dims.items()})
    faces = {}
    for side, src in ((0, x), (1, y)):
        for s, fs in src.faces.items():
            faces[tag(side, s)] = tuple((w, tag(side, t)) for w, t in fs)
    # a complete side is known in every dimension, so only truncated
    # sides cap what the union knows
    caps = [t for t in (x.truncation, y.truncation) if t is not None]
    return SimplicialSet(dims, faces, min(caps) if caps else None, check=False)


def pullback_map(word, f: SimplicialMap, depth: int) -> SimplicialMap:
    """Functorial action on maps: act on level tokens by f."""
    src = pullback_model(word, f.source, depth).compile()
    dst = pullback_model(word, f.target, depth).compile()
    return src.map_to(dst, lambda token, n: f.on_value(token))


def simplicial_circle() -> SimplicialSet:
    return SimplicialSet({"pt": 0, "loop": 1},
                         {"loop": (((), "pt"), ((), "pt"))}, None)


def fold_map(x: SimplicialSet) -> SimplicialMap:
    """The codiagonal X + X -> X."""
    both = disjoint_union(x, x)
    return SimplicialMap(both, x, {(side, s): ((), s) for side, s in both.dims})


# -- isomorphism search ---------------------------------------------------


def find_isomorphism(x: SimplicialSet, y: SimplicialSet):
    """Dimension-by-dimension backtracking; None when not isomorphic."""
    if x.truncation != y.truncation:
        return None
    by_dim_x = {n: x.nondeg(n) for n in range(x.max_nondeg_dim() + 1)}
    by_dim_y = {n: y.nondeg(n) for n in range(y.max_nondeg_dim() + 1)}
    if sorted(by_dim_x) != sorted(by_dim_y):
        return None
    if any(len(by_dim_x[n]) != len(by_dim_y.get(n, ())) for n in by_dim_x):
        return None

    order = [s for n in sorted(by_dim_x) for s in by_dim_x[n]]
    assign: dict = {}
    used: set = set()

    def value_image(value):
        word, s = value
        return (word, assign[s])

    def ok(s, t):
        n = x.dims[s]
        if y.dims[t] != n:
            return False
        for i in range(n + 1) if n else ():
            img = value_image(x.face_of(s, i))
            if y.face_of(t, i) != img:
                return False
        return True

    def solve(idx):
        if idx == len(order):
            return True
        s = order[idx]
        for t in by_dim_y[x.dims[s]]:
            if t in used:
                continue
            if ok(s, t):
                assign[s] = t
                used.add(t)
                if solve(idx + 1):
                    return True
                del assign[s]
                used.remove(t)
        return False

    return dict(assign) if solve(0) else None


RP2_TRIANGLES = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


@pytest.fixture(scope="module")
def rp2():
    return simplicial_set_from_triangulation(RP2_TRIANGLES)


@pytest.fixture(scope="module")
def torus():
    c = simplicial_circle()
    return product(c, c)


def test_word_insertion_normal_form():
    assert compose_words((1,), (2, 0)) == (3, 1, 0)
    assert compose_words((4,), (2, 0)) == (4, 2, 0)
    assert compose_words((0,), ()) == (0,)


def test_standard_simplex_counts_and_homology():
    d4 = standard_simplex(4)
    assert len(d4.dims) == 31
    assert d4.homology() == [(1, [])] + [(0, [])] * 4
    assert d4.euler_characteristic() == 1


def test_value_counts_match_monotone_map_counts():
    # n-simplices of the standard m-simplex are the monotone maps [n]->[m]
    for m in range(4):
        dm = standard_simplex(m)
        for n in range(5):
            assert len(dm.values(n)) == comb(n + m + 1, n + 1)


def reference_pi1_presentation(x: SimplicialSet):
    """`SimplicialSet.pi1_presentation` as it stood before the edge-path
    routine was shared: the first component found by `components`, and a
    triangle skipped unless its first vertex lies in that component."""
    comp = x.components()[0]
    in_comp = set(comp)
    adj = {}
    for e in x.nondeg(1):
        a, b = x.edge_endpoints(e)
        if a in in_comp:
            adj.setdefault(a, []).append((b, e))
            adj.setdefault(b, []).append((a, e))
    root = sorted(comp, key=repr)[0]
    tree_edges = set()
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in sorted(frontier, key=repr):
            for u, e in sorted(adj.get(v, []),
                               key=lambda p: (repr(p[0]), repr(p[1]))):
                if u not in seen:
                    seen.add(u)
                    tree_edges.add(e)
                    nxt.append(u)
        frontier = nxt
    gens = [e for e in x.nondeg(1)
            if e not in tree_edges and x.edge_endpoints(e)[0] in in_comp]
    gen_names = {e: f"g{k}" for k, e in enumerate(gens)}

    def first_vertex(t):
        v = ((), t)
        while x.dim_of(v) > 0:
            v = x.face(v, x.dim_of(v))
        return v[1]

    relators = []
    for t in x.nondeg(2):
        if first_vertex(t) not in in_comp:
            continue
        word = []
        for (w, e), sign in ((x.face_of(t, 2), 1), (x.face_of(t, 0), 1),
                             (x.face_of(t, 1), -1)):
            if not w and e in gen_names:
                word.append((gen_names[e], sign))
        relators.append(tuple(word))
    return GroupPresentation.build(tuple(gen_names.values()), relators)


def test_pi1_matches_the_per_component_reference(rp2):
    bases = [rp2, boundary_of_simplex(3), standard_simplex(2),
             simplicial_circle(), boundary_of_simplex(2)]
    spaces = []
    for a in bases:
        for b in bases:
            spaces += [disjoint_union(a, b), disjoint_union(a, b).opposite()]
    assert len(spaces) == 50
    for space in spaces:
        assert space.pi1_presentation() == reference_pi1_presentation(space)


def test_boundary_circle_invariants():
    bd = boundary_of_simplex(2)
    assert bd.homology() == [(1, []), (1, [])]
    pres = bd.fundamental_group()
    assert len(pres.generators) == 1
    assert pres.relators == ()


def test_sphere_homology():
    s2 = boundary_of_simplex(3)
    assert s2.homology() == [(1, []), (0, []), (1, [])]


def test_projective_plane_invariants(rp2):
    assert len(rp2.nondeg(0)) == 6
    assert len(rp2.nondeg(1)) == 15
    assert len(rp2.nondeg(2)) == 10
    assert rp2.euler_characteristic() == 1
    assert rp2.homology() == [(1, []), (0, [2]), (0, [])]
    assert rp2.pi1_presentation().abelianization() == (0, [2])


def test_homology_rejects_a_dropped_diagonal_entry(rp2, monkeypatch):
    smith = simpset.smith_diagonal
    monkeypatch.setattr(simpset, "smith_diagonal",
                        lambda rows, n_cols=None: smith(rows, n_cols)[1:])
    with pytest.raises(ValueError, match=r"homology: cells \[6, 15, 10\], "
                       r"betti \[2, 2, 1\]: H_0 has betti 2 but the space "
                       r"has 1 components"):
        rp2.homology()


def test_homology_rejects_a_rank_on_the_empty_top_boundary(rp2, monkeypatch):
    smith = simpset.smith_diagonal
    monkeypatch.setattr(simpset, "smith_diagonal",
                        lambda rows, n_cols=None: smith(rows, n_cols) or [1])
    with pytest.raises(ValueError, match=r"cells \[6, 15, 10\], betti "
                       r"\[1, 0, -1\]: Euler characteristic 1 but "
                       r"alternating Betti sum 0"):
        rp2.homology()


def test_torus_from_product_of_circles(torus):
    assert torus.truncation is None
    assert torus.euler_characteristic() == 0
    assert torus.homology() == [(1, []), (2, []), (1, [])]
    assert torus.fundamental_group().abelianization() == (2, [])


def test_opposite_is_involution_and_preserves_homology(rp2, torus):
    for space in (rp2, torus, standard_simplex(3)):
        assert space.opposite().opposite() == space
        assert space.opposite().homology() == space.homology()


def test_opposite_reverses_edges():
    d1 = standard_simplex(1)
    op = d1.opposite()
    a, b = op.edge_endpoints((0, 1))
    assert (a, b) == ((1,), (0,))


def test_contractibility_certificates(rp2):
    good = contractibility(standard_simplex(2), 2)
    assert good.certified()
    assert good.depth == 2

    circle = contractibility(boundary_of_simplex(2), 2)
    assert circle.status == "not_contractible"
    assert "H_1" in circle.reason

    torsion = contractibility(rp2, 2)
    assert torsion.status == "not_contractible"

    two_points = disjoint_union(standard_simplex(0), standard_simplex(0))
    assert contractibility(two_points, 0).status == "not_contractible"

    shallow = SimplicialSet({"v": 0}, {}, truncation=1)
    assert contractibility(shallow, 2).status == "inconclusive"


def test_truncation_limits_homology():
    shallow = SimplicialSet({"v": 0, "e": 1},
                            {"e": (((), "v"), ((), "v"))}, truncation=1)
    assert shallow.homology_report_limit() == 0
    with pytest.raises(ValueError):
        shallow.homology(1)
    with pytest.raises(ValueError):
        shallow.euler_characteristic()


def test_validation_catches_broken_face_records():
    with pytest.raises(ValueError, match="value names unknown simplex 'missing'"):
        SimplicialSet({"e": 1}, {"e": (((), "missing"), ((), "missing"))})
    with pytest.raises(ValueError, match="'e' needs 2 faces"):
        # wrong arity
        SimplicialSet({"v": 0, "e": 1}, {"e": (((), "v"),)})
    # simplicial identity violation: a triangle whose edges do not share
    # vertices coherently
    dims = {"a": 0, "b": 0, "c": 0, "ab": 1, "bc": 1, "ac": 1, "t": 2}
    faces = {
        "ab": (((), "b"), ((), "a")),
        "bc": (((), "c"), ((), "b")),
        "ac": (((), "c"), ((), "a")),
        "t": (((), "bc"), ((), "ac"), ((), "bc")),
    }
    with pytest.raises(ValueError, match=r"simplicial identity fails at 't': "
                       r"d_0 d_2 != d_1 d_0"):
        SimplicialSet(dims, faces)
    # the same violation through degenerate faces: a triangle of collapsed
    # edges (s_0 v, s_0 v, s_0 w), whose vertex 1 is v on the edge d_0 but
    # w on the edge d_2
    with pytest.raises(ValueError, match=r"simplicial identity fails at 't': "
                       r"d_0 d_2 != d_1 d_0"):
        SimplicialSet({"v": 0, "w": 0, "t": 2},
                      {"t": (((0,), "v"), ((0,), "v"), ((0,), "w"))})


def test_fold_map_lifts_uniquely_but_collapse_does_not():
    d1 = standard_simplex(1)
    ok, reason = left_fibration_check(fold_map(d1), 3)
    assert ok, reason

    d0 = standard_simplex(0)
    incl = SimplicialMap(d0, d1, {(0,): ((), (0,))})
    ok, reason = left_fibration_check(incl, 2)
    assert not ok

    collapse = SimplicialMap(d1, d0, {(0,): ((), (0,)),
                                      (1,): ((), (0,)),
                                      (0, 1): ((0,), (0,))})
    ok, reason = left_fibration_check(collapse, 2)
    assert not ok
    assert "2 lifts" in reason


def test_identity_map_is_a_left_fibration(rp2):
    ok, _ = left_fibration_check(SimplicialMap.identity(rp2), 2)
    assert ok


def test_simplicial_map_validation():
    d1 = standard_simplex(1)
    d0 = standard_simplex(0)
    with pytest.raises(ValueError):
        # edge sent to a vertex value of the wrong dimension
        SimplicialMap(d1, d0, {(0,): ((), (0,)), (1,): ((), (0,)),
                               (0, 1): ((), (0,))})


def test_find_isomorphism_up_to_relabeling():
    d2 = standard_simplex(2)
    names = {s: f"x{i}" for i, (s, n) in enumerate(sorted(d2.dims.items()))}
    dims = {names[s]: n for s, n in d2.dims.items()}
    faces = {names[s]: tuple((w, names[y]) for w, y in fs)
             for s, fs in d2.faces.items()}
    relabeled = SimplicialSet(dims, faces)
    iso = find_isomorphism(d2, relabeled)
    assert iso is not None
    assert iso[(0, 1, 2)] == names[(0, 1, 2)]

    assert find_isomorphism(d2, boundary_of_simplex(2)) is None


composable_pair = st.integers(0, 3).flatmap(
    lambda a: st.integers(0, 3).flatmap(
        lambda b: st.integers(0, 3).flatmap(
            lambda c: st.tuples(
                st.sampled_from(sorted(all_maps(a, b), key=repr)),
                st.sampled_from(sorted(all_maps(b, c), key=repr))))))


@settings(max_examples=60, deadline=None)
@given(composable_pair)
def test_act_is_contravariantly_functorial(pair):
    f, g = pair
    space = product(standard_simplex(1), standard_simplex(1))
    for v in space.values(g.target_arity):
        assert space.action(g.compose(f))(v) == \
            space.action(f)(space.action(g)(v))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4))
def test_act_identity_is_identity(n):
    space = boundary_of_simplex(2)
    ident = DeltaMap.identity(n)
    for v in space.values(n):
        assert space.action(ident)(v) == v


def test_action_rejects_a_value_of_the_wrong_dimension(rp2):
    f = DeltaMap.coface(0, 2)
    edge, triangle = rp2.values(1)[0], rp2.values(2)[0]
    apply = rp2.action(f)
    assert apply(triangle) == rp2.face(triangle, 0)
    with pytest.raises(ValueError, match="value dimension does not match the map"):
        apply(edge)


def test_surjection_action_matches_the_per_letter_oracle():
    # every monotone map [a] -> [b] with a, b <= 5, onto or not
    space = standard_simplex(3)
    pairs = 0
    for a in range(6):
        for b in range(6):
            for f in all_maps(a, b):
                apply = space.action(f)
                for v in space.values(b):
                    assert apply(v) == per_letter_action(space, f, v), (f, v)
                    pairs += 1
                if b > 0:
                    with pytest.raises(ValueError,
                                       match="value dimension does not"):
                        apply(space.values(b - 1)[0])
    assert pairs == 112617


# -- the closed-form word algebra against the letter-by-letter one ---------


def normal_words(n):
    """Every normal word of an n-dimensional value: the subsets of
    [0, n - 1], in decreasing order."""
    return [w for k in range(n + 1)
            for w in combinations(range(n - 1, -1, -1), k)]


def outer_words(n, k):
    """The normal words of length k over an n-dimensional value."""
    return combinations(range(n + k - 1, -1, -1), k)


def test_compose_and_op_word_match_the_letter_oracles():
    cases = 0
    for p in range(8):
        for inner in normal_words(p):
            for k in range(4):
                for outer in outer_words(p, k):
                    assert compose_words(outer, inner) == \
                        reference_compose_words(outer, inner), (outer, inner)
                    cases += 1
            assert op_word(inner, p) == reference_op_word(inner, p), inner
            cases += 1
    assert cases == 33023


def test_face_matches_the_letter_oracle(rp2):
    spaces = [standard_simplex(3),
              product(standard_simplex(1), standard_simplex(2)),
              standard_simplex(2).opposite()]
    faces = 0
    for space in spaces + [rp2]:
        for n in range(1, 7):
            for v in space.values(n):
                for i in range(n + 1):
                    assert space.face(v, i) == reference_face(space, v, i), (v, i)
                    faces += 1
    assert faces == 6749 + 3942


def test_compose_words_is_associative_with_unit():
    triples = 0
    for p in range(4):
        for c in normal_words(p):
            assert compose_words((), c) == c == compose_words(c, ())
            for j in range(3):
                for b in outer_words(p, j):
                    bc = compose_words(b, c)
                    for i in range(3):
                        for a in outer_words(p + j, i):
                            assert compose_words(a, bc) == \
                                compose_words(compose_words(a, b), c), (a, b, c)
                            triples += 1
    assert triples == 3917


def test_op_word_is_an_involution_that_reverses_composition():
    for n in range(8):
        for w in normal_words(n):
            assert op_word(op_word(w, n), n) == w
    cases = 0
    for p in range(5):
        for b in normal_words(p):
            for k in range(3):
                for a in outer_words(p, k):
                    n = p + k
                    assert op_word(compose_words(a, b), n) == compose_words(
                        op_word(a, n), op_word(b, n - len(a))), (a, b)
                    cases += 1
    assert cases == 511


def test_faces_of_degeneracies_obey_the_simplicial_identities():
    space = product(standard_simplex(1), standard_simplex(2))
    cases = 0
    for n in range(5):
        for v in space.values(n):
            for j in range(n + 1):
                s = space.degeneracy(v, j)
                for i in range(n + 2):
                    if i < j:
                        want = space.degeneracy(space.face(v, i), j - 1)
                    elif i <= j + 1:
                        want = v
                    else:
                        want = space.degeneracy(space.face(v, i - 1), j)
                    assert space.face(s, i) == want, (v, j, i)
                    cases += 1
    assert cases == 5880


# -- the level-model compiler against the per-token one it replaced --------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference_compile(model: LevelModel):
    """`LevelModel.compile` as it was when `act` took a map and one token:
    every map's action is worked out again for every token it meets.
    Driven through an adapter from the `act(f)` contract."""
    def act(f, t):
        return model.act(f)(t)

    tokens = {n: list(model.levels(n)) for n in range(model.max_dim + 1)}
    for n, toks in tokens.items():
        if len(set(toks)) != len(toks):
            raise ValueError(f"duplicate tokens at level {n}")
    mark = {}
    for n in range(1, model.max_dim + 1):
        present = set(tokens[n])
        for j in range(n):
            sj = DeltaMap.codegeneracy(j, n - 1)
            for t in tokens[n - 1]:
                image = act(sj, t)
                if image not in present:
                    raise ValueError(f"degeneracy left the level model at {t!r}")
                if (n, image) not in mark:
                    mark[(n, image)] = (j, t)
    ids = {}
    used = set()
    for n in range(model.max_dim + 1):
        for t in tokens[n]:
            if (n, t) in mark:
                continue
            if t in used:
                raise ValueError(f"duplicate simplex id {t!r}")
            used.add(t)
            ids[(n, t)] = t
    dims, faces, token_of = {}, {}, {}
    for (n, t), name in ids.items():
        dims[name] = n
        token_of[name] = t
        if n > 0:
            faces[name] = tuple(
                reference_resolve(mark, ids, n - 1, act(DeltaMap.coface(i, n), t))
                for i in range(n + 1))
    return (SimplicialSet(dims, faces, model.truncation), tokens, mark, ids,
            token_of)


def reference_resolve(mark, ids, n, t):
    """The value of token t at level n: follow the degeneracy marks down to
    a nondegenerate token, collecting letters outermost-first."""
    word = ()
    while (n, t) in mark:
        j, parent = mark[(n, t)]
        word += (j,)
        n, t = n - 1, parent
    return (reference_compose_words(word, ()), ids[(n, t)])


class ReferenceCompiled:
    """`CompiledLevelModel` over the reference: maps resolve their images
    through the marks."""

    def __init__(self, model: LevelModel):
        self.space, _, self.mark, self.ids, self.token_of = \
            reference_compile(model)

    def map_to(self, other, push):
        return SimplicialMap(self.space, other.space, {
            name: reference_resolve(other.mark, other.ids, n,
                                    push(self.token_of[name], n))
            for name, n in self.space.dims.items()})


def _pullback_d4_op_id():
    return pullback_model(parse_word("op,id"), standard_simplex(4), 5)


def _compile_models():
    for m in (1, 2, 3):
        for word in ("op,id", "op,id,op", "id,op,id", "const:1"):
            for depth in (2, 3, 4):
                yield (f"pullback-d{m}-{word}-{depth}",
                       lambda m=m, word=word, depth=depth: pullback_model(
                           parse_word(word), standard_simplex(m), depth))
    yield ("pullback-d4-op,id-5", _pullback_d4_op_id)
    yield ("product-d1-d2",
           lambda: product_model(standard_simplex(1), standard_simplex(2)))
    yield ("product-circle-circle",
           lambda: product_model(simplicial_circle(), simplicial_circle()))
    yield ("product-op(d2)-d2", lambda: product_model(
        standard_simplex(2).opposite(), standard_simplex(2)))
    for name, depth in (("bz2", 3), ("poset3", None)):
        yield (f"nerve-{name}", lambda name=name, depth=depth: nerve_model(
            load_category((FIXTURES / f"{name}.cat").read_text()), depth))
    yield ("nerve-Q(vect:2:1)",
           lambda: nerve_model(q_category(VectInstance(2, 1)).category, 3))
    yield ("nerve-Q(abp:2:4)",
           lambda: nerve_model(q_category(AbPInstance(2, 4)).category, 3))


COMPILE_MODELS = list(_compile_models())


@pytest.mark.parametrize("build", [b for _, b in COMPILE_MODELS],
                         ids=[name for name, _ in COMPILE_MODELS])
def test_compile_matches_the_per_token_reference(build):
    model = build()
    got = model.compile()
    space, tokens, mark, ids, _ = reference_compile(model)
    assert got.space == space
    # dict order too: it fixes the order of the compiled simplices
    assert list(got.space.dims.items()) == list(space.dims.items())
    assert list(got.space.faces.items()) == list(space.faces.items())
    assert got.tokens == tokens
    for n, toks in tokens.items():
        assert list(got.values[n]) == toks
        for t in toks:
            assert got.values[n][t] == reference_resolve(mark, ids, n, t)


def _bz2():
    return load_category((FIXTURES / "bz2.cat").read_text())


def _boundary_inclusion():
    return SimplicialMap(boundary_of_simplex(2), standard_simplex(2),
                         {s: ((), s) for s in boundary_of_simplex(2).dims})


MAP_CASES = {
    "nerve-twisted-projection-bz2":
        lambda: nerve_map(twisted_projection(_bz2()), 3),
    "pullback-edgewise-boundary-inclusion":
        lambda: pullback_map(EDGEWISE, _boundary_inclusion(), 2),
    "edgewise-structure-d1":
        lambda: edgewise_structure_map(standard_simplex(1), 3),
}


@pytest.mark.parametrize("name", list(MAP_CASES))
def test_map_to_matches_the_reference(monkeypatch, name):
    got = MAP_CASES[name]()
    monkeypatch.setattr(LevelModel, "compile",
                        lambda model: ReferenceCompiled(model))
    want = MAP_CASES[name]()
    assert got.source == want.source and got.target == want.target
    assert list(got.assignment.items()) == list(want.assignment.items())


def test_compile_applies_each_degeneracy_once_per_degenerate_token():
    model = _pullback_d4_op_id()
    act = model.act
    calls = 0

    def counting_act(f):
        apply = act(f)
        if f.misses():
            return apply

        def spy(t):
            nonlocal calls
            calls += 1
            return apply(t)
        return spy

    compiled = LevelModel(model.levels, counting_act, model.max_dim,
                          model.truncation).compile()
    tokens = sum(len(toks) for toks in compiled.tokens.values())
    assert (tokens, len(compiled.space.dims)) == (3611, 231)
    assert calls == 3380 == tokens - len(compiled.space.dims)


def _identity_action(f):
    return lambda t: t


def test_compile_rejects_duplicate_tokens():
    model = LevelModel(levels=lambda n: ["v", "w", "v"], act=_identity_action,
                       max_dim=0)
    with pytest.raises(ValueError, match="duplicate tokens at level 0"):
        model.compile()


def test_compile_rejects_a_degeneracy_that_leaves_the_model():
    levels = {0: ["v"], 1: ["e"]}
    model = LevelModel(levels=levels.__getitem__,
                       act=lambda f: lambda t: "elsewhere", max_dim=1)
    with pytest.raises(ValueError,
                       match="degeneracy left the level model at 'v'"):
        model.compile()


def test_compile_rejects_duplicate_simplex_ids():
    # every degeneracy lands on "w", so "v" is nondegenerate at both levels
    levels = {0: ["v"], 1: ["w", "v"]}
    model = LevelModel(levels=levels.__getitem__,
                       act=lambda f: lambda t: "w", max_dim=1)
    with pytest.raises(ValueError, match="duplicate simplex id 'v'"):
        model.compile()


def test_compile_rejects_two_degeneracies_onto_one_token():
    # s_0 f and s_1 s_0 v both land on "x", which no simplicial set allows
    levels = {0: ["v"], 1: ["e", "f"], 2: ["x"]}

    def act(f):
        if not f.misses():
            image = {1: "e", 2: "x"}[f.source_arity]
        else:
            image = "v" if f.source_arity == 0 else "e"
        return lambda t: image

    model = LevelModel(levels=levels.__getitem__, act=act, max_dim=2)
    with pytest.raises(ValueError, match="two degeneracies reach 'x'"):
        model.compile()


# -- horn families against the candidate scan they replaced ---------------


def reference_horn_families(candidates, faces, slots):
    """Backtracking enumeration of compatible (n-1)-value families.

    Slot j and slot i with j < i must satisfy d_j(x_i) = d_(i-1)(x_j), the
    relation the faces of an actual n-simplex would obey.  `faces` maps a
    candidate to its face tuple; None means dimension 1, where the single
    slot is unconstrained.
    """
    if faces is None:
        for v in candidates:
            yield {slots[0]: v}
        return

    by_face: dict = {}
    for v in candidates:
        for p, w in enumerate(faces[v]):
            by_face.setdefault((p, w), set()).add(v)

    family: dict = {}

    def extend(idx):
        if idx == len(slots):
            yield dict(family)
            return
        i = slots[idx]
        # every already-placed slot pins one face of the newcomer, so the
        # viable candidates sit in an intersection of by_face buckets
        empty: set = set()
        needs = []
        for j, prev in family.items():
            if j < i:
                needs.append(by_face.get((j, faces[prev][i - 1]), empty))
            else:
                needs.append(by_face.get((j - 1, faces[prev][i]), empty))
        pool = candidates if not needs else [
            v for v in candidates if all(v in s for s in needs)]
        for v in pool:
            family[i] = v
            yield from extend(idx + 1)
            del family[i]

    yield from extend(0)


def _horn_inputs(space, n):
    """The candidates and faces `left_fibration_check` hands the family
    enumeration in dimension n."""
    low = space.values(n - 1)
    faces = None if n < 2 else {
        v: tuple(space.face(v, i) for i in range(n)) for v in low}
    return low, faces


@pytest.mark.parametrize("name", ["bz2", "poset3"])
def test_horn_families_match_the_candidate_scan(name):
    c = load_category((FIXTURES / f"{name}.cat").read_text())
    shadow = nerve_map(twisted_projection(c), 3)
    families = 0
    for space in (shadow.source, shadow.target):
        for n in range(1, 4):
            low, faces = _horn_inputs(space, n)
            for k in range(n):
                slots = [i for i in range(n + 1) if i != k]
                got = list(simpset._horn_families(low, faces, slots))
                assert got == list(reference_horn_families(low, faces, slots))
                families += len(got)
    assert families > 0


def test_left_fibration_failure_matches_the_candidate_scan(monkeypatch):
    # two boundaries of the 2-simplex folded onto the 2-simplex: edges
    # lift uniquely, but each of several horn families over the 2-simplex
    # has no lift, so the failure named is the first family enumerated
    edge = boundary_of_simplex(2)
    both = disjoint_union(edge, edge)
    fold = SimplicialMap(both, standard_simplex(2),
                         {(side, x): ((), x) for side, x in both.dims})
    got = left_fibration_check(fold, 3)
    assert got == (False, "0 lifts over ((), (0, 1, 2)) for horn (n=2, k=0) "
                   "at [(1, ((), (0, (0, 2)))), (2, ((), (0, (0, 1))))]")
    monkeypatch.setattr(simpset, "_horn_families", reference_horn_families)
    assert left_fibration_check(fold, 3) == got
