from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcat import simpset
from qcat.delta import parse_word, pullback_model
from qcat.exact import VectInstance
from qcat.fincat import nerve_model
from qcat.formats import load_category
from qcat.ordmaps import DeltaMap, all_maps
from qcat.qcons import q_category
from qcat.simpset import (
    LevelModel,
    SimplicialMap,
    SimplicialSet,
    boundary_of_simplex,
    contractibility,
    find_isomorphism,
    fold_map,
    insert_degeneracy,
    left_fibration_check,
    product,
    product_model,
    simplicial_circle,
    simplicial_set_from_triangulation,
    standard_simplex,
)

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
    assert insert_degeneracy(1, (2, 0)) == (3, 1, 0)
    assert insert_degeneracy(4, (2, 0)) == (4, 2, 0)
    assert insert_degeneracy(0, ()) == (0,)


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

    two_points = standard_simplex(0).disjoint_union(standard_simplex(0))
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
    with pytest.raises(ValueError):
        SimplicialSet({"e": 1}, {"e": (((), "missing"), ((), "missing"))})
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        SimplicialSet(dims, faces)


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
        assert space.act(g.compose(f), v) == space.act(f, space.act(g, v))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4))
def test_act_identity_is_identity(n):
    space = boundary_of_simplex(2)
    ident = DeltaMap.identity(n)
    for v in space.values(n):
        assert space.act(ident, v) == v


def test_action_rejects_a_value_of_the_wrong_dimension(rp2):
    f = DeltaMap.coface(0, 2)
    edge, triangle = rp2.values(1)[0], rp2.values(2)[0]
    apply = rp2.action(f)
    assert apply(triangle) == rp2.face(triangle, 0) == rp2.act(f, triangle)
    with pytest.raises(ValueError, match="value dimension does not match the map"):
        rp2.act(f, edge)
    with pytest.raises(ValueError, match="value dimension does not match the map"):
        apply(edge)


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
                simpset._resolve(mark, ids, n - 1, act(DeltaMap.coface(i, n), t))
                for i in range(n + 1))
    return (SimplicialSet(dims, faces, model.truncation), tokens, mark, ids,
            token_of)


def _compile_models():
    for m in (1, 2, 3):
        for word in ("op,id", "op,id,op", "id,op,id", "const:1"):
            for depth in (2, 3, 4):
                yield (f"pullback-d{m}-{word}-{depth}",
                       lambda m=m, word=word, depth=depth: pullback_model(
                           parse_word(word), standard_simplex(m), depth))
    yield ("product-d1-d2",
           lambda: product_model(standard_simplex(1), standard_simplex(2)))
    yield ("product-circle-circle",
           lambda: product_model(simplicial_circle(), simplicial_circle()))
    for name, depth in (("bz2", 3), ("poset3", None)):
        yield (f"nerve-{name}", lambda name=name, depth=depth: nerve_model(
            load_category((FIXTURES / f"{name}.cat").read_text()), depth))
    yield ("nerve-Q(vect:2:1)",
           lambda: nerve_model(q_category(VectInstance(2, 1)).category, 3))


COMPILE_MODELS = list(_compile_models())


@pytest.mark.parametrize("build", [b for _, b in COMPILE_MODELS],
                         ids=[name for name, _ in COMPILE_MODELS])
def test_compile_matches_the_per_token_reference(build):
    model = build()
    got = model.compile()
    space, tokens, mark, ids, token_of = reference_compile(model)
    assert got.space == space
    assert list(got.space.dims.items()) == list(space.dims.items())
    assert got.tokens == tokens
    # dict order too: it fixes the order of the compiled simplices
    assert list(got.mark.items()) == list(mark.items())
    assert list(got.ids.items()) == list(ids.items())
    assert list(got.token_of.items()) == list(token_of.items())
    assert got.model is model


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
