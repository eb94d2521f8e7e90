from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from qcat.ordmaps import DeltaMap, all_maps
from word_oracles import elementary_ops


def is_injective(f: DeltaMap) -> bool:
    return len(set(f.values)) == len(f.values)


def surjection_of_word(word: tuple[int, ...], n: int) -> DeltaMap:
    """The surjection [n] ->> [n - len(word)] named by a degeneracy word.

    `word` lists indices of s_{j} operators, leftmost applied last, so the
    map is codegeneracy(word[-1]) ; ... ; codegeneracy(word[0]) read as a
    composite in the simplex category.
    """
    m = n - len(word)
    f = DeltaMap.identity(m)
    level = m
    for j in reversed(word):
        f = f.compose(DeltaMap.codegeneracy(j, level))
        level += 1
    # the composite above has source [n]
    return DeltaMap(n, m, f.values)


def apply_ops_to_vertex_tuple(ops, verts):
    """Oracle: act on a simplex stored as its vertex tuple.

    A face drops one position, a degeneracy repeats one.  Starting from the
    identity tuple of [b] this computes the value tuple of the map whose
    elementary ops were supplied.
    """
    out = list(verts)
    for kind, idx in ops:
        if kind == "d":
            del out[idx]
        else:
            out.insert(idx, out[idx])
    return tuple(out)


def test_identity_and_call():
    f = DeltaMap.identity(3)
    assert [f(i) for i in range(4)] == [0, 1, 2, 3]
    assert is_injective(f) and not f.misses()


def test_validation_rejects_bad_maps():
    with pytest.raises(ValueError):
        DeltaMap(1, 1, (1, 0))
    with pytest.raises(ValueError):
        DeltaMap(1, 1, (0, 2))
    with pytest.raises(ValueError):
        DeltaMap(2, 1, (0, 1))


def test_cosimplicial_identities():
    # d^j d^i = d^i d^(j-1) for i < j, checked at every arity that fits
    for n in range(1, 5):
        for i, j in product(range(n + 1), repeat=2):
            if i < j:
                lhs = DeltaMap.coface(j, n + 1).compose(DeltaMap.coface(i, n))
                rhs = DeltaMap.coface(i, n + 1).compose(DeltaMap.coface(j - 1, n))
                assert lhs == rhs
    # s^j s^i = s^i s^(j+1) for i <= j
    for n in range(4):
        for i, j in product(range(n + 1), repeat=2):
            if i <= j:
                lhs = DeltaMap.codegeneracy(j, n).compose(DeltaMap.codegeneracy(i, n + 1))
                rhs = DeltaMap.codegeneracy(i, n).compose(DeltaMap.codegeneracy(j + 1, n + 1))
                assert lhs == rhs


def test_all_maps_counts():
    for a, b in product(range(4), repeat=2):
        got = list(all_maps(a, b))
        assert len(got) == comb(a + b + 1, a + 1)
        assert len(set(got)) == len(got)


def test_elementary_ops_factorization_exhaustive():
    # Acting on the identity vertex tuple of [b] must reproduce the value
    # tuple of the map itself, for every map up to arity 3.
    for a, b in product(range(4), repeat=2):
        for f in all_maps(a, b):
            verts = tuple(range(b + 1))
            assert apply_ops_to_vertex_tuple(elementary_ops(f), verts) == f.values


def test_elementary_ops_shape():
    f = DeltaMap(2, 3, (1, 1, 3))
    ops = elementary_ops(f)
    faces = [o for o in ops if o[0] == "d"]
    degens = [o for o in ops if o[0] == "s"]
    assert ops == tuple(faces) + tuple(degens)
    assert faces == [("d", 2), ("d", 0)]
    assert degens == [("s", 0)]


def test_reversed_is_an_involution_and_swaps_cofaces():
    for a, b in product(range(4), repeat=2):
        for f in all_maps(a, b):
            assert f.reversed().reversed() == f
    for n in range(1, 5):
        for i in range(n + 1):
            assert DeltaMap.coface(i, n).reversed() == DeltaMap.coface(n - i, n)


def test_surjection_of_word_known_values():
    assert surjection_of_word((), 2) == DeltaMap.identity(2)
    assert surjection_of_word((1, 0), 2).values == (0, 0, 0)
    assert surjection_of_word((2, 0), 3).values == (0, 0, 1, 1)


@given(st.data())
def test_surjection_of_word_doubles_roundtrip(data):
    # strictly decreasing words name surjections whose doubled positions
    # are exactly the word's letters
    n = data.draw(st.integers(min_value=1, max_value=6))
    letters = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n)
    )
    word = tuple(sorted(letters, reverse=True))
    f = surjection_of_word(word, n)
    assert not f.misses()
    assert f.target_arity == n - len(word)
    assert set(f.doubles()) == set(word)
