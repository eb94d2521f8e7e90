"""Finite abelian group machinery, cross-checked against integer normal
forms: structure typing via order statistics must agree with the
invariant factors of the presentation lattice."""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from math import prod

import pytest

from qcat import zmod


# -- element-level helpers that only the tests use -------------------------


def add(moduli, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def scale(moduli, k, a):
    return tuple((k * x) % m for x, m in zip(a, moduli))


def closure(moduli, gens):
    """The subgroup generated by `gens`, by breadth-first sums."""
    z = zmod.zero(moduli)
    seen = {z}
    frontier = [z]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = add(moduli, s, g)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return frozenset(seen)


def structure_from_killed(killed, p):
    """Invariant-factor exponents (nonincreasing) of a finite abelian
    p-group with killed[k] elements annihilated by p^k (k = 0, 1, ...):
    killed[k] / killed[k-1] is p to the number c_k of factors of exponent
    >= k, so factor i has exponent #{k : c_k > i}."""
    at_least = [zmod._exact_log(p, b // a) for a, b in zip(killed, killed[1:])]
    return tuple(sum(c > i for c in at_least)
                 for i in range(max(at_least, default=0)))


def structure_of(moduli, els, p):
    """Invariant-factor exponents (nonincreasing) of a subgroup of a
    p-group, read off from its element orders."""
    by_order = Counter(zmod.order_exps(moduli, els, p))
    return structure_from_killed(list(accumulate(
        by_order[k] for k in range(max(by_order, default=0) + 1))), p)


def snf_structure(moduli, els, p):
    """Oracle: invariant factors of L/diag(moduli), where L is the
    preimage lattice, via an exact triangular solve and sympy's Smith
    normal form (independent of qcat's own `smith_form`)."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

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
    d = smith_normal_form(sympy.Matrix(r, r, [x for row in rows for x in row]))
    exps = []
    for i in range(r):
        k, n = 0, abs(int(d[i, i]))
        while n > 1:
            assert n % p == 0
            n //= p
            k += 1
        if k:
            exps.append(k)
    return tuple(sorted(exps, reverse=True))


# -- the coset walk, backtracking and closure constructions that
#    `all_subgroups`, `subgroup_basis` and `quotient_map` replaced, kept as
#    oracles ------------------------------------------------------------------


def reference_all_subgroups(moduli):
    """Every subgroup, as a frozenset of elements, by size and then by
    sorted element list.

    Breadth-first from the trivial subgroup: each subgroup S found is
    extended by one element e per coset of S other than S itself (S + <e>
    depends only on the coset e + S).  The extension S + <e> is built as
    the union of the cosets S + k*e for k = 0, 1, ..., stopping at the
    first k*e that lies in S, so no generating set is ever closed.
    """
    els = zmod.elements(moduli)
    trivial = frozenset({zmod.zero(moduli)})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            covered = set(sub)
            for e in els:
                if e in covered:
                    continue
                coset = {add(moduli, e, s) for s in sub}
                covered |= coset
                bigger = set(sub) | coset
                step = add(moduli, e, e)
                while step not in sub:
                    bigger.update(add(moduli, step, s) for s in sub)
                    step = add(moduli, step, e)
                bigger = frozenset(bigger)
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def reference_element_order_exp(moduli, x, p):
    """Smallest k with p^k * x = 0; assumes the ambient group is a
    p-group so that the order of x is a power of p."""
    k = 0
    while any(x):
        x = scale(moduli, p, x)
        k += 1
    return k


def reference_basis_of(moduli, els, p):
    """Independent generators realizing structure_of, via backtracking in
    a deterministic element order.  basis[i] has order p^structure[i] and
    the partial spans multiply up exactly."""
    struct = structure_of(moduli, els, p)
    ordered = sorted(els)
    chosen = []

    def extend(i, span):
        if i == len(struct):
            return True
        want = p ** struct[i]
        for x in ordered:
            if reference_element_order_exp(moduli, x, p) != struct[i]:
                continue
            bigger = closure(moduli, list(span) + [x])
            if len(bigger) != len(span) * want:
                continue
            chosen.append(x)
            if extend(i + 1, bigger):
                return True
            chosen.pop()
        return False

    if not extend(0, frozenset({zmod.zero(moduli)})):
        raise ValueError("no basis found; input is not a subgroup?")
    return chosen


class ReferenceQuotientView:
    """The quotient of Z/m_1 x ... x Z/m_r by a subgroup, with cosets
    keyed by their minimal representative and a p-group coordinate chart
    found by backtracking over the cosets."""

    def __init__(self, moduli, kernel, p):
        self.moduli = moduli
        self.kernel = frozenset(kernel)
        self.p = p
        rep = {}
        for x in sorted(zmod.elements(moduli)):
            if x in rep:
                continue
            for k in self.kernel:
                rep[add(moduli, x, k)] = x  # x is minimal
        self._rep = rep
        self.reps = sorted(set(rep.values()))
        self.structure = self._structure()
        self.basis = self._basis()
        self._coords = self._coordinate_chart()

    def _q_add(self, a, b):
        return self._rep[add(self.moduli, a, b)]

    def _q_order_exp(self, a):
        k = 0
        while a not in self.kernel:
            a = self._rep[scale(self.moduli, self.p, a)]
            k += 1
        return k

    def _structure(self):
        size = len(self.reps)
        killed = []
        k = 0
        while True:
            c = sum(1 for a in self.reps if self._q_order_exp(a) <= k)
            killed.append(c)
            if c == size:
                break
            k += 1
        at_least = [zmod._exact_log(self.p, killed[i] // killed[i - 1])
                    for i in range(1, len(killed))]
        exps = [0] * (at_least[0] if at_least else 0)
        for depth, count in enumerate(at_least, start=1):
            for i in range(count):
                exps[i] = depth
        return tuple(sorted(exps, reverse=True))

    def _basis(self):
        struct = self.structure
        zero_rep = self._rep[zmod.zero(self.moduli)]
        chosen = []

        def span_of(gens):
            seen = {zero_rep}
            frontier = [zero_rep]
            while frontier:
                nxt = []
                for s in frontier:
                    for g in gens:
                        t = self._q_add(s, g)
                        if t not in seen:
                            seen.add(t)
                            nxt.append(t)
                frontier = nxt
            return frozenset(seen)

        def extend(i, span):
            if i == len(struct):
                return True
            want = self.p ** struct[i]
            for a in self.reps:
                if self._q_order_exp(a) != struct[i]:
                    continue
                bigger = span_of(chosen + [a])
                if len(bigger) != len(span) * want:
                    continue
                chosen.append(a)
                if extend(i + 1, bigger):
                    return True
                chosen.pop()
            return False

        if not extend(0, frozenset({zero_rep})):
            raise ValueError("quotient basis search failed")
        return chosen

    def _coordinate_chart(self):
        coords = {}
        for cs in product(*[range(self.p ** e) for e in self.structure]):
            acc = self._rep[zmod.zero(self.moduli)]
            for c, b in zip(cs, self.basis):
                acc = self._q_add(acc, self._rep[scale(self.moduli, c, b)])
            coords[acc] = cs
        return coords

    def coords_of(self, x):
        return self._coords[self._rep[x]]

    def matrix_from_ambient(self):
        r = len(self.moduli)
        units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
        cols = [self.coords_of(u) for u in units]
        return tuple(tuple(col[i] for col in cols)
                     for i in range(len(self.structure)))


CASES = [(2, (2, 2, 4)), (2, (4, 4)), (2, (2, 8)), (3, (3, 9)),
         (2, (2, 2, 2)), (5, (5, 25))]


@pytest.mark.parametrize("p,moduli", CASES)
def test_structure_matches_snf_oracle_on_every_subgroup(p, moduli):
    for sub in reference_all_subgroups(moduli):
        assert structure_of(moduli, sub, p) == \
            snf_structure(moduli, sub, p)


# the cases above plus larger and mixed-exponent groups
BASIS_CASES = CASES + [(2, (2, 4, 4)), (3, (3, 3, 9)), (2, (8, 4, 2)),
                       (2, (2, 2, 2, 2))]


def generator_lists(moduli, sub):
    """The subgroup as its member list and as its Hermite key rows, the
    two kinds of input the callers hand over."""
    return [sorted(sub), list(zmod.subgroup_key(moduli, sub))]


@pytest.mark.parametrize("p,moduli", BASIS_CASES)
def test_basis_generates_and_realizes_structure(p, moduli):
    for sub in reference_all_subgroups(moduli):
        struct = structure_of(moduli, sub, p)
        ref = reference_basis_of(moduli, sub, p)
        ref_orders = tuple(reference_element_order_exp(moduli, b, p)
                           for b in ref)
        assert ref_orders == struct
        assert closure(moduli, ref) == sub
        for gens in generator_lists(moduli, sub):
            got, basis = zmod.subgroup_basis(moduli, gens, p)
            assert got == struct
            orders = tuple(reference_element_order_exp(moduli, b, p)
                           for b in basis)
            assert orders == struct
            assert all(b == tuple(x % m for x, m in zip(b, moduli))
                       for b in basis)
            # generating a group of order prod(orders) makes them independent
            assert closure(moduli, basis) == sub
            assert len(sub) == prod(p ** e for e in orders)


@pytest.mark.parametrize("p,moduli", CASES)
def test_subgroup_key_is_canonical(p, moduli):
    seen = {}
    for sub in reference_all_subgroups(moduli):
        key = zmod.subgroup_key(moduli, sub)
        assert key not in seen  # distinct subgroups, distinct keys
        seen[key] = sub
        # regenerating from the key rows round-trips
        gens = [tuple(c % m for c, m in zip(row, moduli)) for row in key]
        regen = closure(moduli, gens)
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
                bigger = closure(moduli, list(sub) + [e])
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("moduli", [m for _, m in CASES]
                         + [(2, 2, 2, 2), (4, 2, 2), (2, 2, 2, 2, 2)],
                         ids=str)
def test_coset_extension_matches_closure_enumeration(moduli):
    assert reference_all_subgroups(moduli) == closure_all_subgroups(moduli)


@pytest.mark.parametrize("moduli", [()] + [m for _, m in BASIS_CASES]
                         + [(2, 2, 2, 2, 2), (8, 4, 2)], ids=str)
def test_all_subgroups_lists_the_keys_of_the_coset_walk(moduli):
    assert zmod.all_subgroups(moduli) == sorted(
        zmod.subgroup_key(moduli, sub)
        for sub in reference_all_subgroups(moduli))


def test_solve_moduli_rejects_a_lattice_that_misses_a_modulus():
    # the rows (2, 1), (0, 2) are triangular with pivots dividing (2, 4)
    # and contain 4e_1, but 2e_0 = (2, 1) - (0, 1) is not in their span
    assert zmod._solve_moduli((2, 4), ((2, 1), (0, 2))) is None
    assert zmod._solve_moduli((2, 4), ((2, 0), (0, 2))) == [[1, 0], [0, 2]]
    assert zmod._solve_moduli((), ()) == []


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
            z = zmod.mat_apply((4, 2), rows, add((2, 4), x, x))
            assert z == add((4, 2), y, y)


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
    cases = [((4,), [(2,)], (1,)), ((2, 4), [(1, 2)], (2,)),
             ((2, 4), [(1, 0), (0, 1)], ())]
    for moduli, gens, struct in cases:
        assert zmod.quotient_map(moduli, gens, 2)[0] == struct
        ref = ReferenceQuotientView(moduli, closure(moduli, gens), 2)
        assert ref.structure == struct


@pytest.mark.parametrize("p,moduli", [(2, (2, 4)), (2, (2, 2, 2)), (3, (9,))]
                         + [c for c in BASIS_CASES if c != (2, (2, 2, 2))])
def test_quotient_projection_matrix(p, moduli):
    els = zmod.elements(moduli)
    for sub in reference_all_subgroups(moduli):
        ref = ReferenceQuotientView(moduli, sub, p)
        ref_dst = tuple(p ** e for e in ref.structure)
        ref_rows = ref.matrix_from_ambient()
        for x in els:
            assert zmod.mat_apply(ref_dst, ref_rows, x) == ref.coords_of(x)
        # sizes: |G| = |kernel| * |quotient|
        assert len(els) == len(sub) * len(ref.reps)
        for gens in generator_lists(moduli, sub):
            struct, rows = zmod.quotient_map(moduli, gens, p)
            assert struct == ref.structure
            dst = tuple(p ** e for e in struct)
            image = {x: zmod.mat_apply(dst, rows, x) for x in els}
            # a homomorphism on the group, not just on representatives
            for x in els:
                for y in els[:: max(1, len(els) // 8)]:
                    assert image[add(moduli, x, y)] == \
                        add(dst, image[x], image[y])
            # kernel the subgroup, onto, and the same cosets as the chart
            assert {x for x in els if not any(image[x])} == sub
            assert len(set(image.values())) == prod(dst)
            fibers = {}
            for x in els:
                fibers.setdefault(image[x], set()).add(ref.coords_of(x))
            assert all(len(f) == 1 for f in fibers.values())
