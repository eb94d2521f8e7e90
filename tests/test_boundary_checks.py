"""Checks on the boundary matrices that share no code with `snf`.

The H_0 and Euler characteristic checks cannot see a wrong rank in d_2
or higher.  Two independent ones can: every composite d_(n-1) d_n
vanishes (which also catches a wrong face or sign), and the rank of d_n
over F_p, found here by plain Gaussian elimination mod p, equals the
number of Smith diagonal entries of d_n not divisible by p.  With p = 2
that checks the 2-primary torsion (RP^2's Z/2) as well as the rank;
p = 2^31 - 1 divides no entry these spaces produce.
"""

from pathlib import Path

import pytest

from qcat.delta import JoinWord, edgewise, pullback
from qcat.exact import AbPInstance, VectInstance
from qcat.fincat import nerve, twisted_arrow
from qcat.formats import load_category, load_sset
from qcat.qcons import q_category
from qcat.simpset import boundary_of_simplex, product, standard_simplex
from qcat.snf import smith_diagonal
from triangulations import SEEDS, surface

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PRIMES = (2, 2 ** 31 - 1)


def rank_mod(rows, p: int) -> int:
    """Rank over F_p by row reduction, rows as lists of integers."""
    live = [{j: v % p for j, v in enumerate(r) if v % p} for r in rows]
    live = [r for r in live if r]
    rank = 0
    while live:
        pivot_row = live.pop()
        j, v = min(pivot_row.items())
        inv = pow(v, p - 2, p)
        rest = []
        for r in live:
            c = r.get(j)
            if c:
                factor = c * inv % p
                for k, w in pivot_row.items():
                    x = (r.get(k, 0) - factor * w) % p
                    if x:
                        r[k] = x
                    else:
                        r.pop(k, None)
            if r:
                rest.append(r)
        live = rest
        rank += 1
    return rank


def composite_is_zero(upper, lower) -> bool:
    """Whether d_(n-1) d_n = 0, with d_n as rows (n-simplices) over
    columns ((n-1)-simplices) and d_(n-1) likewise one degree down."""
    for row in upper:
        acc = {}
        for k, c in enumerate(row):
            if c:
                for j, d in enumerate(lower[k]):
                    if d:
                        acc[j] = acc.get(j, 0) + c * d
        if any(acc.values()):
            return False
    return True


def _fixture(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


SPACES = {
    "fixture-rp2": lambda: load_sset(_fixture("rp2.sset")),
    **{f"seeded-{name}": lambda name=name: surface(name, 20, seed=3)
       for name in sorted(SEEDS)},
    **{f"simplex-{m}": lambda m=m: standard_simplex(m) for m in range(5)},
    **{f"boundary-{m}": lambda m=m: boundary_of_simplex(m)
       for m in range(1, 5)},
    "nerve-bz2": lambda: nerve(load_category(_fixture("bz2.cat")), 3),
    "nerve-poset3": lambda: nerve(load_category(_fixture("poset3.cat")), 3),
    "nerve-q-abp:2:4": lambda: nerve(q_category(AbPInstance(2, 4)).category,
                                     3),
    "edgewise-simplex-2": lambda: edgewise(standard_simplex(2), 3),
    "pullback-op,id-boundary-2": lambda: pullback(
        JoinWord(("op", "id")), boundary_of_simplex(2), 3),
    "product-simplex-2x1": lambda: product(standard_simplex(2),
                                           standard_simplex(1)),
    "nerve-twisted-bz2": lambda: nerve(
        twisted_arrow(load_category(_fixture("bz2.cat"))), 3),
    "nerve-q-vect:2:2": lambda: nerve(q_category(VectInstance(2, 2)).category,
                                      2),
}


@pytest.mark.parametrize("name", list(SPACES))
def test_boundaries_compose_to_zero_and_ranks_match_smith(name):
    space = SPACES[name]()
    top = space.max_nondeg_dim()
    mats = {n: space.boundary_matrix(n)[0] for n in range(1, top + 1)}
    checked = 0
    for n in range(2, top + 1):
        if mats[n] and mats[n - 1]:
            assert composite_is_zero(mats[n], mats[n - 1]), n
            checked += 1
    for n, rows in mats.items():
        n_cols = len(space.nondeg(n - 1))
        diag = smith_diagonal(rows, n_cols)
        for p in PRIMES:
            assert rank_mod(rows, p) == sum(1 for d in diag if d % p), (n, p)
    assert checked == max(top - 1, 0)


def test_rank_mod_sees_the_two_torsion_of_rp2():
    rows = load_sset(_fixture("rp2.sset")).boundary_matrix(2)[0]
    assert rank_mod(rows, 2) + 1 == rank_mod(rows, 2 ** 31 - 1)


def test_composite_check_catches_a_flipped_sign():
    space = standard_simplex(2)
    d2, d1 = space.boundary_matrix(2)[0], space.boundary_matrix(1)[0]
    assert composite_is_zero(d2, d1)
    flipped = [[-c if k == 0 else c for k, c in enumerate(r)] for r in d2]
    assert not composite_is_zero(flipped, d1)
