import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qcat import fincat, qcons
from qcat.exact import parse_instance
from qcat.formats import load_sset
from qcat.presentation import (
    GroupPresentation,
    _cyclic_key,
    _solve_for,
    _substitute,
    cyclic_reduce,
    free_reduce,
    invert_word,
)
from triangulations import SEEDS, surface

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def w(text):
    """'a b- a' -> ((a,1),(b,-1),(a,1)), a compact spelling for tests."""
    out = []
    for tok in text.split():
        if tok.endswith("-"):
            out.append((tok[:-1], -1))
        else:
            out.append((tok, 1))
    return tuple(out)


def test_free_and_cyclic_reduce():
    assert free_reduce(w("a a- b")) == w("b")
    assert free_reduce(w("a b b- a-")) == ()
    assert cyclic_reduce(w("a b a-")) == w("b")
    assert cyclic_reduce(w("a b")) == w("a b")
    assert invert_word(w("a b-")) == w("b a-")


def test_abelianization_known_groups():
    klein = GroupPresentation("ab", [w("a b a b-")])
    assert klein.abelianization() == (1, [2])

    trefoil = GroupPresentation("ab", [w("a b a b- a- b-")])
    assert trefoil.abelianization() == (1, [])

    cyclic2 = GroupPresentation("g", [w("g g")])
    assert cyclic2.abelianization() == (0, [2])

    free2 = GroupPresentation("ab", [])
    assert free2.abelianization() == (2, [])


def test_simplified_eliminates_single_occurrence_generator():
    p = GroupPresentation("ab", [w("b a- a-")])
    q = p.simplified()
    assert q.generators == ("a",)
    assert q.relators == ()


def is_recognizably_trivial(p):
    return not p.simplified().generators


def test_simplified_detects_trivial_group():
    p = GroupPresentation("ab", [w("a b"), w("a")])
    assert is_recognizably_trivial(p)

    # Z/2 must not collapse
    p2 = GroupPresentation("a", [w("a a")])
    q2 = p2.simplified()
    assert q2.generators == ("a",)
    assert not is_recognizably_trivial(p2)


def test_relator_tidying_drops_duplicates_and_empties():
    p = GroupPresentation("ab", [w("a b"), w("b a"), w("b- a-"), w("a a-")])
    assert len(p.relators) == 1


gen_strategy = st.sampled_from("xyz")
letter = st.tuples(gen_strategy, st.sampled_from([1, -1]))
word_strategy = st.lists(letter, max_size=8).map(tuple)


@given(st.lists(word_strategy, max_size=5))
def test_simplification_preserves_abelianization(relators):
    p = GroupPresentation(("x", "y", "z"), relators)
    assert p.simplified().abelianization() == p.abelianization()


# -- reference Tietze loop -----------------------------------------------
#
# `simplified` updates its relators incrementally.  This is the loop it
# replaced: every move re-tidies all relators, re-sorts them and
# substitutes into each one.  The two must agree exactly, generators and
# relators in the same order.


def _tidy(rels):
    out = []
    seen = set()
    for rel in rels:
        if not rel:
            continue
        key = _cyclic_key(rel)
        if key not in seen:
            seen.add(key)
            out.append(rel)
    return out


def _find_elimination(rels):
    order = sorted(range(len(rels)), key=lambda i: (len(rels[i]), rels[i]))
    for i in order:
        counts = {}
        for g, _ in rels[i]:
            counts[g] = counts.get(g, 0) + 1
        once = sorted(g for g, c in counts.items() if c == 1)
        if once:
            return once[0], i
    return None


def reference_simplified(p, budget=10000):
    gens = sorted(p.generators)
    rels = [cyclic_reduce(r) for r in p.relators]
    steps = 0
    while steps < budget:
        rels = _tidy(rels)
        move = _find_elimination(rels)
        if move is None:
            break
        gen, rel_idx = move
        rel = rels.pop(rel_idx)
        replacement = _solve_for(rel, gen)
        gens.remove(gen)
        rels = [cyclic_reduce(_substitute(r, gen, replacement)) for r in rels]
        steps += 1
    return GroupPresentation(tuple(gens), tuple(_tidy(rels)))


def random_presentation(rng):
    gens = [f"x{i}" for i in range(rng.randint(1, 6))]
    rels = [tuple((rng.choice(gens), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 9)))
            for _ in range(rng.randint(0, 8))]
    # unreduced, empty and repeated relators, which the constructor tidies
    return GroupPresentation(tuple(gens), tuple(rels))


@pytest.mark.parametrize("budget", [0, 1, 2, 3, None])
def test_simplified_matches_reference_on_random_presentations(budget):
    rng = random.Random(4)
    for _ in range(1500):
        p = random_presentation(rng)
        if budget is None:
            assert p.simplified() == reference_simplified(p), p
        else:
            assert p.simplified(budget) == reference_simplified(p, budget), p


def check_against_reference(p):
    for budget in (1, len(p.generators) // 2, 10000):
        assert p.simplified(budget) == reference_simplified(p, budget)


@pytest.mark.parametrize("name", ["s2", "t2", "rp2"])
def test_simplified_matches_reference_on_surfaces(name):
    p = surface(name, 26, seed=1).pi1_presentation()
    assert len(p.relators) >= 50
    check_against_reference(p)


def test_simplified_matches_reference_on_rp2_fixture():
    p = load_sset((FIXTURES / "rp2.sset").read_text()).pi1_presentation()
    q = p.simplified()
    assert q == reference_simplified(p)
    assert q.abelianization() == (0, [2])


# -- the constructor tidies ----------------------------------------------


def test_constructor_tidies_like_the_reference():
    rng = random.Random(11)
    for _ in range(1500):
        gens = [f"x{i}" for i in range(rng.randint(1, 5))]
        raw = [[(rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 7))]
               for _ in range(rng.randint(0, 9))]
        # repeat some relators, rotated or inverted, so keys collide
        for rel in list(raw):
            if rel and rng.random() < 0.3:
                k = rng.randrange(len(rel))
                twin = rel[k:] + rel[:k]
                raw.append(list(invert_word(twin)) if rng.random() < 0.5
                           else twin)
        rng.shuffle(raw)
        p = GroupPresentation(gens, raw)
        assert p.generators == tuple(gens)
        assert p.relators == tuple(_tidy(cyclic_reduce(r) for r in raw))
        assert p._keys == tuple(_cyclic_key(r) for r in p.relators)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate generators"):
        GroupPresentation("aba", [])
    with pytest.raises(ValueError, match="unknown generator 'c'"):
        GroupPresentation("ab", [w("a b"), w("c c-")])
    with pytest.raises(ValueError, match=r"exponent \+1 or -1"):
        GroupPresentation("ab", [(("a", 2),)])
    # a letter and its would-be inverse must not cancel before the check
    with pytest.raises(ValueError, match=r"exponent \+1 or -1"):
        GroupPresentation("ab", [(("a", 2), ("a", -2))])


# -- whole presentations against the reference --------------------------


def raw_q_presentation(descriptor):
    return fincat.pi1_presentation(
        qcons.q_category(parse_instance(descriptor)).category)


@pytest.mark.parametrize("descriptor",
                         ["abp:2:4", "vect:2:2", "abp:3:9", "vect:3:2"])
def test_simplified_matches_reference_on_q_categories(descriptor):
    check_against_reference(raw_q_presentation(descriptor))


@pytest.mark.parametrize("name", ["s2", "t2", "rp2"])
def test_simplified_matches_reference_on_200_triangle_surfaces(name):
    # each stellar move adds two triangles
    p = surface(name, (200 - len(SEEDS[name])) // 2, seed=2).pi1_presentation()
    check_against_reference(p)


# -- shared letters ------------------------------------------------------


def test_words_share_their_letters():
    p = raw_q_presentation("abp:3:9")
    letters = {id(letter) for rel in p.relators for letter in rel}
    assert len(p.generators) == 81
    assert len(letters) <= 2 * len(p.generators)

    word = (("a", 1), ("b", 1), ("b", -1), ("c", 1), ("a", -1))
    for reduced in (free_reduce(word), cyclic_reduce(word)):
        assert all(any(letter is x for x in word) for letter in reduced)
    assert cyclic_reduce(word) == (word[3],)
