import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

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
from triangulations import surface

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
    klein = GroupPresentation.build("ab", [w("a b a b-")])
    assert klein.abelianization() == (1, [2])

    trefoil = GroupPresentation.build("ab", [w("a b a b- a- b-")])
    assert trefoil.abelianization() == (1, [])

    cyclic2 = GroupPresentation.build("g", [w("g g")])
    assert cyclic2.abelianization() == (0, [2])

    free2 = GroupPresentation.build("ab", [])
    assert free2.abelianization() == (2, [])


def test_simplified_eliminates_single_occurrence_generator():
    p = GroupPresentation.build("ab", [w("b a- a-")])
    q = p.simplified()
    assert q.generators == ("a",)
    assert q.relators == ()


def is_recognizably_trivial(p):
    return not p.simplified().generators


def test_simplified_detects_trivial_group():
    p = GroupPresentation.build("ab", [w("a b"), w("a")])
    assert is_recognizably_trivial(p)

    # Z/2 must not collapse
    p2 = GroupPresentation.build("a", [w("a a")])
    q2 = p2.simplified()
    assert q2.generators == ("a",)
    assert not is_recognizably_trivial(p2)


def test_relator_tidying_drops_duplicates_and_empties():
    p = GroupPresentation.build("ab", [w("a b"), w("b a"), w("b- a-"), w("a a-")])
    assert len(p.relators) == 1


gen_strategy = st.sampled_from("xyz")
letter = st.tuples(gen_strategy, st.sampled_from([1, -1]))
word_strategy = st.lists(letter, max_size=8).map(tuple)


@given(st.lists(word_strategy, max_size=5))
def test_simplification_preserves_abelianization(relators):
    p = GroupPresentation.build(("x", "y", "z"), relators)
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
    # the raw constructor keeps unreduced, empty and repeated relators
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


@pytest.mark.parametrize("name", ["s2", "t2", "rp2"])
def test_simplified_matches_reference_on_surfaces(name):
    p = surface(name, 26, seed=1).pi1_presentation()
    assert len(p.relators) >= 50
    for budget in (1, len(p.generators) // 2, 10000):
        assert p.simplified(budget) == reference_simplified(p, budget)


def test_simplified_matches_reference_on_rp2_fixture():
    p = load_sset((FIXTURES / "rp2.sset").read_text()).pi1_presentation()
    q = p.simplified()
    assert q == reference_simplified(p)
    assert q.abelianization() == (0, [2])
