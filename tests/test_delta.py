from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from qcat.delta import (
    EDGEWISE,
    ConstWord,
    JoinWord,
    edgewise,
    edgewise_structure_map,
    is_combinatorial_subdivision,
    parse_word,
    pullback,
    pullback_map,
)
from qcat.ordmaps import DeltaMap, all_maps
from qcat.simpset import (
    SimplicialMap,
    boundary_of_simplex,
    left_fibration_check,
    standard_simplex,
    truncate,
)
from test_simpset import find_isomorphism
from triangulations import HOMOLOGY, surface


def test_apply_object_values():
    assert EDGEWISE.apply_object(1) == 3
    assert JoinWord(("id",)).apply_object(5) == 5
    assert JoinWord(("id", "op", "id")).apply_object(2) == 8
    assert ConstWord(2).apply_object(9) == 2


def test_word_validation_and_parsing():
    with pytest.raises(ValueError):
        JoinWord(())
    with pytest.raises(ValueError):
        JoinWord(("id", "flip"))
    with pytest.raises(ValueError):
        ConstWord(-1)
    assert parse_word("op, id") == EDGEWISE
    assert parse_word("const:3") == ConstWord(3)
    with pytest.raises(ValueError):
        parse_word("const:x")


WORDS = [
    JoinWord(("id",)),
    JoinWord(("op",)),
    EDGEWISE,
    JoinWord(("id", "op")),
    JoinWord(("op", "op", "id")),
    ConstWord(2),
]


@pytest.mark.parametrize("word", WORDS, ids=lambda w: w.describe())
def test_apply_map_is_functorial_exhaustively(word):
    for a in range(3):
        assert word.apply_map(DeltaMap.identity(a)) == \
            DeltaMap.identity(word.apply_object(a))
    for a, b, c in iproduct(range(3), repeat=3):
        for f in all_maps(a, b):
            for g in all_maps(b, c):
                lhs = word.apply_map(g.compose(f))
                rhs = word.apply_map(g).compose(word.apply_map(f))
                assert lhs == rhs


def test_apply_map_blockwise_example():
    # delta_0: [0] -> [1] hitting 1; under (op, id) the op block reverses
    f = DeltaMap(0, 1, (1,))
    lifted = EDGEWISE.apply_map(f)
    assert lifted.source_arity == 1 and lifted.target_arity == 3
    assert lifted.values == (0, 3)


def test_edgewise_interval_is_the_span_into_the_long_edge():
    sub = pullback(EDGEWISE, standard_simplex(1), 2)
    assert len(sub.nondeg(0)) == 3
    assert len(sub.nondeg(1)) == 2
    assert len(sub.nondeg(2)) == 0
    long_edge = ((), (0, 1))
    targets = {sub.edge_endpoints(e)[1] for e in sub.nondeg(1)}
    sources = {sub.edge_endpoints(e)[0] for e in sub.nondeg(1)}
    assert targets == {long_edge}
    assert sources == {((0,), (0,)), ((0,), (1,))}


def test_identity_word_pullback_is_the_input():
    d2 = standard_simplex(2)
    back = pullback(JoinWord(("id",)), d2, 2)
    assert find_isomorphism(back, truncate(d2, 2)) is not None


def test_const_word_pullback_is_discrete():
    pts = pullback(ConstWord(0), standard_simplex(1), 3)
    assert len(pts.nondeg(0)) == 2
    assert pts.max_nondeg_dim() == 0


def test_pullback_depth_guard():
    shallow = truncate(standard_simplex(3), 2)
    with pytest.raises(ValueError):
        pullback(EDGEWISE, shallow, 1)  # needs dimension 3


def test_edgewise_vertex_counts():
    for p in range(5):
        e = edgewise(standard_simplex(p), 1)
        assert len(e.nondeg(0)) == (p + 1) * (p + 2) // 2


def test_edgewise_point_is_a_point():
    e = edgewise(standard_simplex(0), 2)
    assert len(e.dims) == 1
    assert e.max_nondeg_dim() == 0


def test_structure_map_into_op_product():
    # construction validates simplicial compatibility internally
    sm = edgewise_structure_map(standard_simplex(1), 3)
    assert len(sm.target.nondeg(0)) == 4
    ok, reason = left_fibration_check(sm, 3)
    assert ok, reason


def test_pullback_preserves_monomorphisms():
    incl = SimplicialMap(
        boundary_of_simplex(2), standard_simplex(2),
        {s: ((), s) for s in boundary_of_simplex(2).dims})
    lifted = pullback_map(EDGEWISE, incl, 2)
    for n in range(3):
        vals = lifted.source.values(n)
        images = [lifted.on_value(v) for v in vals]
        assert len(set(images)) == len(images)


def test_subdivision_verdicts():
    assert is_combinatorial_subdivision(JoinWord(("id",)), 2).status == "subdivision"

    v = is_combinatorial_subdivision(EDGEWISE, 3)
    assert v.status == "subdivision"
    assert v.depth == 4
    assert all(cert.certified() for _, cert in v.per_m)

    bad = is_combinatorial_subdivision(ConstWord(0), 1)
    assert bad.status == "not_subdivision"
    assert bad.witness_m == 1
    assert bad.certificate(1).reason == "disconnected"

    with pytest.raises(ValueError):
        is_combinatorial_subdivision(EDGEWISE, 0)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([w for w in WORDS if isinstance(w, JoinWord)]),
       st.integers(1, 2))
def test_small_words_subdivide_small_simplices(word, m_max):
    # classification note treated as a conjecture: every short join word
    # passes on small simplices
    verdict = is_combinatorial_subdivision(word, m_max)
    assert verdict.status == "subdivision"


@pytest.mark.parametrize("name", sorted(HOMOLOGY))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edgewise_subdivision_preserves_surface_homology(name, seed):
    # depth 3 determines the subdivision's homology through degree 2
    x = surface(name, moves=seed + 1, seed=seed)
    assert x.homology() == HOMOLOGY[name]
    assert edgewise(x, 3).homology() == HOMOLOGY[name]
