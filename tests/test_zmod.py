"""Finite abelian group machinery, cross-checked against integer normal
forms: structure typing via order statistics must agree with the
invariant factors of the presentation lattice."""

from fractions import Fraction

import pytest

from qcat import zmod
from qcat.snf import smith_diagonal


def snf_structure(moduli, els, p):
    """Oracle: invariant factors of L/diag(moduli), where L is the
    preimage lattice, via an exact triangular solve and SNF."""
    r = len(moduli)
    basis = [list(row) for row in zmod.subgroup_key(moduli, els)]
    rows = []
    for i in range(r):
        target = [moduli[i] if j == i else 0 for j in range(r)]
        x = [Fraction(0)] * r
        for j in range(r):  # basis is upper triangular
            acc = Fraction(target[j])
            for k in range(j):
                acc -= x[k] * basis[k][j]
            x[j] = acc / basis[j][j]
        assert all(v.denominator == 1 for v in x)
        rows.append([int(v) for v in x])
    exps = []
    for d in smith_diagonal(rows):
        k = 0
        while d > 1:
            assert d % p == 0
            d //= p
            k += 1
        if k:
            exps.append(k)
    return tuple(sorted(exps, reverse=True))


CASES = [(2, (2, 2, 4)), (2, (4, 4)), (2, (2, 8)), (3, (3, 9)),
         (2, (2, 2, 2)), (5, (5, 25))]


@pytest.mark.parametrize("p,moduli", CASES)
def test_structure_matches_snf_oracle_on_every_subgroup(p, moduli):
    for sub in zmod.all_subgroups(moduli):
        assert zmod.structure_of(moduli, sub, p) == \
            snf_structure(moduli, sub, p)


@pytest.mark.parametrize("p,moduli", CASES)
def test_basis_generates_and_realizes_structure(p, moduli):
    for sub in zmod.all_subgroups(moduli):
        struct = zmod.structure_of(moduli, sub, p)
        basis = zmod.basis_of(moduli, sub, p)
        orders = tuple(zmod.element_order_exp(moduli, b, p) for b in basis)
        assert orders == struct
        assert zmod.closure(moduli, basis) == sub


@pytest.mark.parametrize("p,moduli", CASES)
def test_subgroup_key_is_canonical(p, moduli):
    seen = {}
    for sub in zmod.all_subgroups(moduli):
        key = zmod.subgroup_key(moduli, sub)
        assert key not in seen  # distinct subgroups, distinct keys
        seen[key] = sub
        # regenerating from the key rows round-trips
        gens = [tuple(c % m for c, m in zip(row, moduli)) for row in key]
        regen = zmod.closure(moduli, gens)
        assert regen == sub
        assert zmod.subgroup_key(moduli, regen) == key


def test_subgroup_counts():
    # (Z/2)^2 has 5 subgroups, Z/4 has 3, Z/2+Z/4 has 8
    assert len(zmod.all_subgroups((2, 2))) == 5
    assert len(zmod.all_subgroups((4,))) == 3
    assert len(zmod.all_subgroups((2, 4))) == 8


def closure_all_subgroups(moduli):
    """Reference enumeration: breadth-first over subgroups, closing every
    known subgroup together with each element outside it."""
    els = zmod.elements(moduli)
    trivial = frozenset({zmod.zero(moduli)})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            for e in els:
                if e in sub:
                    continue
                bigger = zmod.closure(moduli, list(sub) + [e])
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("moduli", [m for _, m in CASES]
                         + [(2, 2, 2, 2), (4, 2, 2), (2, 2, 2, 2, 2)],
                         ids=str)
def test_coset_extension_matches_closure_enumeration(moduli):
    assert zmod.all_subgroups(moduli) == closure_all_subgroups(moduli)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def conjugate(partition):
    return [sum(1 for part in partition if part > i)
            for i in range(max(partition, default=0))]


def birkhoff_count(lam, p):
    """Number of subgroups of the abelian p-group of type `lam`: the sum
    over types mu inside lam of Birkhoff's count
    prod_i p^(mu'_{i+1} (lam'_i - mu'_i)) [lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p
    in conjugate partitions (Butler, Mem. AMS 539, 1994)."""
    lam_c = conjugate(lam)
    total = 0

    def types(i, cap):
        # mu' as nonincreasing sequences with mu'_i <= min(lam'_i, cap)
        if i == len(lam_c):
            yield []
            return
        for c in range(min(lam_c[i], cap), -1, -1):
            for rest in types(i + 1, c):
                yield [c] + rest

    for mu_c in types(0, lam_c[0] if lam_c else 0):
        count = 1
        for i, (l_i, m_i) in enumerate(zip(lam_c, mu_c)):
            m_next = mu_c[i + 1] if i + 1 < len(mu_c) else 0
            count *= p ** (m_next * (l_i - m_i))
            count *= gaussian_binomial(l_i - m_next, m_i - m_next, p)
        total += count
    return total


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 16), (4, 67),
                                     (5, 374)])
def test_elementary_abelian_two_group_subgroup_counts(n, count):
    assert sum(gaussian_binomial(n, k, 2) for k in range(n + 1)) == count
    assert len(zmod.all_subgroups((2,) * n)) == count


def test_elementary_abelian_three_group_subgroup_count():
    assert sum(gaussian_binomial(3, k, 3) for k in range(4)) == 28
    assert len(zmod.all_subgroups((3, 3, 3))) == 28


@pytest.mark.parametrize("p,moduli", CASES + [(2, (2, 4, 4)), (3, (3, 3, 9)),
                                              (2, (8, 4, 2))])
def test_subgroup_counts_match_birkhoff(p, moduli):
    lam = []
    for m in moduli:
        e = 0
        while m > 1:
            m //= p
            e += 1
        lam.append(e)
    lam.sort(reverse=True)
    assert len(zmod.all_subgroups(moduli)) == birkhoff_count(lam, p)


def test_hom_rows_counts_and_welldefinedness():
    homs = zmod.hom_rows((2,), (4,))
    assert homs == [((0,),), ((2,),)]
    # |Hom(Z/4, Z/2+Z/4)| = 2 * 4
    assert len(zmod.hom_rows((4,), (2, 4))) == 8
    for rows in zmod.hom_rows((2, 4), (4, 2)):
        for x in zmod.elements((2, 4)):
            y = zmod.mat_apply((4, 2), rows, x)
            # additive on a generating sample
            z = zmod.mat_apply((4, 2), rows, zmod.add((2, 4), x, x))
            assert z == zmod.add((4, 2), y, y)


def test_mat_mul_matches_pointwise_composition():
    for g in zmod.hom_rows((4,), (2, 2)):
        for f in zmod.hom_rows((2, 4), (4,)):
            gf = zmod.mat_mul((2, 2), g, f, 2)
            for x in zmod.elements((2, 4)):
                via_g = zmod.mat_apply((2, 2), g, zmod.mat_apply((4,), f, x))
                assert zmod.mat_apply((2, 2), gf, x) == via_g


def test_mat_mul_through_trivial_group_keeps_shape():
    # X -> 0 -> Y must come out as a properly shaped zero matrix
    f = ()           # Z/2+Z/2 -> trivial: no rows
    g = ((), ())     # trivial -> Z/2+Z/2: two empty rows
    assert zmod.mat_mul((2, 2), g, f, 2) == ((0, 0), (0, 0))


def test_quotient_view_structures():
    q = zmod.QuotientView((4,), zmod.closure((4,), [(2,)]), 2)
    assert q.structure == (1,)
    q2 = zmod.QuotientView((2, 4), zmod.closure((2, 4), [(1, 2)]), 2)
    assert q2.structure == (2,)
    whole = zmod.QuotientView((2, 4), zmod.closure((2, 4), [(1, 0), (0, 1)]), 2)
    assert whole.structure == ()


@pytest.mark.parametrize("p,moduli", [(2, (2, 4)), (2, (2, 2, 2)), (3, (9,))])
def test_quotient_projection_matrix(p, moduli):
    for sub in zmod.all_subgroups(moduli):
        q = zmod.QuotientView(moduli, sub, p)
        rows = q.matrix_from_ambient()
        dst = tuple(p ** e for e in q.structure)
        for x in zmod.elements(moduli):
            assert zmod.mat_apply(dst, rows, x) == q.coords_of(x)
        # sizes: |G| = |kernel| * |quotient|
        total = 1
        for m in moduli:
            total *= m
        assert total == len(sub) * len(q.reps)
