"""Finite abelian groups presented as products of cyclic groups.

Everything works over a "moduli vector" (m_1, ..., m_r): the group
Z/m_1 x ... x Z/m_r, elements stored as length-r tuples reduced mod the
componentwise moduli.  Subgroups appear in two forms: plain frozensets of
elements for enumeration, and Hermite-form bases of the preimage lattice
in Z^r for canonical (hashable, order-free) keys.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, product
from math import gcd

from .snf import hermite_rows

Moduli = tuple[int, ...]
Elem = tuple[int, ...]


def elements(moduli: Moduli) -> list[Elem]:
    return list(product(*[range(m) for m in moduli]))


def zero(moduli: Moduli) -> Elem:
    return (0,) * len(moduli)


def add(moduli: Moduli, a: Elem, b: Elem) -> Elem:
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def neg(moduli: Moduli, a: Elem) -> Elem:
    return tuple((-x) % m for x, m in zip(a, moduli))


def scale(moduli: Moduli, k: int, a: Elem) -> Elem:
    return tuple((k * x) % m for x, m in zip(a, moduli))


def mat_apply(dst_moduli: Moduli, rows, vec: Elem) -> Elem:
    return tuple(
        sum(r * v for r, v in zip(row, vec)) % m
        for row, m in zip(rows, dst_moduli))


def mat_mul(dst_moduli: Moduli, g_rows, f_rows, n_cols: int):
    """Rows of g o f, reduced mod the destination moduli.  `n_cols` is
    the source arity of f: it cannot be recovered from f_rows when the
    middle group is trivial (f has no rows), yet the composite must still
    be a properly shaped zero matrix."""
    cols = list(zip(*f_rows)) if f_rows else [()] * n_cols
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) % m for col in cols)
        for row, m in zip(g_rows, dst_moduli))


def identity_rows(moduli: Moduli):
    n = len(moduli)
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def hom_rows(src_moduli: Moduli, dst_moduli: Moduli):
    """All matrices of well-defined homomorphisms, lexicographic by the
    flattened entry list.  Entry (i, j) sends the order-m_j generator into
    Z/n_i, so it ranges over the multiples of n_i/gcd(n_i, m_j)."""
    cells = []
    for n_i in dst_moduli:
        for m_j in src_moduli:
            g = gcd(n_i, m_j)
            step = n_i // g
            cells.append(tuple(k * step for k in range(g)))
    s = len(src_moduli)
    out = []
    for flat in product(*cells):
        out.append(tuple(flat[i * s:(i + 1) * s]
                         for i in range(len(dst_moduli))))
    return out


# -- subgroups -------------------------------------------------------------


def closure(moduli: Moduli, gens) -> frozenset:
    z = zero(moduli)
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


def all_subgroups(moduli: Moduli) -> list[frozenset]:
    """Every subgroup, as a frozenset of elements, in a deterministic
    order (by size, then by sorted element list).

    Breadth-first from the trivial subgroup: each subgroup S found is
    extended by one element e per coset of S other than S itself (S + <e>
    depends only on the coset e + S).  The extension S + <e> is built as
    the union of the cosets S + k*e for k = 0, 1, ..., stopping at the
    first k*e that lies in S, so no generating set is ever closed.
    """
    els = elements(moduli)
    trivial = frozenset({zero(moduli)})
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


def subgroup_key(moduli: Moduli, els):
    """Canonical key: Hermite basis of the preimage lattice in Z^r.

    The lattice spanned by the element representatives together with the
    rows of diag(moduli) is exactly {v : v mod moduli lies in the
    subgroup}, and its Hermite form is unique, so equal subgroups get
    bit-equal keys regardless of how they were generated.
    """
    r = len(moduli)
    rows = [list(e) for e in els]
    rows += [[m if i == j else 0 for j in range(r)]
             for i, m in enumerate(moduli)]
    return hermite_rows(rows, r)


def element_order_exp(moduli: Moduli, x: Elem, p: int) -> int:
    """Smallest k with p^k * x = 0; assumes the ambient group is a
    p-group so that the order of x is a power of p."""
    k = 0
    while any(x):
        x = scale(moduli, p, x)
        k += 1
    return k


def _exact_log(p: int, n: int) -> int:
    k = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{n} is not a power of {p}")
        n //= p
        k += 1
    return k


def structure_of(moduli: Moduli, els, p: int) -> tuple[int, ...]:
    """Invariant-factor exponents (nonincreasing) of a subgroup of a
    p-group, read off from the order statistics: the count of elements
    killed by p^k determines how many factors have exponent >= k."""
    # order_exp[m][c]: the k with p^k the order of c in Z/m
    order_exp = {m: [_exact_log(p, m // gcd(m, c)) for c in range(m)]
                 for m in set(moduli)}
    by_order = Counter(
        max((order_exp[m][c % m] for c, m in zip(x, moduli)), default=0)
        for x in els)
    # killed[k] = #elements annihilated by p^k
    killed = list(accumulate(by_order[k]
                             for k in range(max(by_order, default=0) + 1)))
    at_least = [_exact_log(p, killed[i] // killed[i - 1])
                for i in range(1, len(killed))]
    exps = []
    for depth, count in enumerate(at_least, start=1):
        # `count` factors have exponent >= depth
        while len(exps) < count:
            exps.append(0)
        for i in range(count):
            exps[i] = depth
    return tuple(sorted(exps, reverse=True))


def basis_of(moduli: Moduli, els, p: int) -> list[Elem]:
    """Independent generators realizing structure_of, via backtracking in
    a deterministic element order.  basis[i] has order p^structure[i] and
    the partial spans multiply up exactly."""
    struct = structure_of(moduli, els, p)
    ordered = sorted(els)
    chosen: list[Elem] = []

    def extend(i: int, span: frozenset) -> bool:
        if i == len(struct):
            return True
        want = p ** struct[i]
        for x in ordered:
            if element_order_exp(moduli, x, p) != struct[i]:
                continue
            bigger = closure(moduli, list(span) + [x])
            if len(bigger) != len(span) * want:
                continue
            chosen.append(x)
            if extend(i + 1, bigger):
                return True
            chosen.pop()
        return False

    if not extend(0, frozenset({zero(moduli)})):
        raise ValueError("no basis found; input is not a subgroup?")
    return chosen


class QuotientView:
    """The quotient of Z/m_1 x ... x Z/m_r by a subgroup, with cosets
    keyed by their minimal representative and a p-group coordinate chart
    for writing maps into the quotient as matrices."""

    def __init__(self, moduli: Moduli, kernel, p: int):
        self.moduli = moduli
        self.kernel = frozenset(kernel)
        self.p = p
        rep: dict[Elem, Elem] = {}
        for x in sorted(elements(moduli)):
            if x in rep:
                continue
            coset = [add(moduli, x, k) for k in self.kernel]
            for y in coset:
                rep[y] = x  # x is minimal: sorted outer loop
        self._rep = rep
        self.reps = sorted(set(rep.values()))
        self.structure = self._structure()
        self.basis = self._basis()
        self._coords = self._coordinate_chart()

    def rep_of(self, x: Elem) -> Elem:
        return self._rep[x]

    def _q_add(self, a: Elem, b: Elem) -> Elem:
        return self._rep[add(self.moduli, a, b)]

    def _q_order_exp(self, a: Elem) -> int:
        k = 0
        while a not in self.kernel:
            a = self._rep[scale(self.moduli, self.p, a)]
            k += 1
        return k

    def _structure(self) -> tuple[int, ...]:
        size = len(self.reps)
        killed = []
        k = 0
        while True:
            c = sum(1 for a in self.reps if self._q_order_exp(a) <= k)
            killed.append(c)
            if c == size:
                break
            k += 1
        at_least = [_exact_log(self.p, killed[i] // killed[i - 1])
                    for i in range(1, len(killed))]
        exps = [0] * (at_least[0] if at_least else 0)
        for depth, count in enumerate(at_least, start=1):
            for i in range(count):
                exps[i] = depth
        return tuple(sorted(exps, reverse=True))

    def _basis(self) -> list[Elem]:
        struct = self.structure
        zero_rep = self._rep[zero(self.moduli)]
        chosen: list[Elem] = []

        def span_of(gens) -> frozenset:
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

        def extend(i: int, span: frozenset) -> bool:
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

    def _coordinate_chart(self) -> dict[Elem, tuple[int, ...]]:
        coords: dict[Elem, tuple[int, ...]] = {}
        ranges = [range(self.p ** e) for e in self.structure]
        for cs in product(*ranges):
            acc = self._rep[zero(self.moduli)]
            for c, b in zip(cs, self.basis):
                acc = self._q_add(acc, self._rep[scale(self.moduli, c, b)])
            coords[acc] = cs
        return coords

    def coords_of(self, x: Elem) -> tuple[int, ...]:
        return self._coords[self.rep_of(x)]

    def matrix_from_ambient(self):
        """Rows of the projection map: column j is the coordinate vector
        of the image of the j-th ambient unit vector."""
        r = len(self.moduli)
        units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
        cols = [self.coords_of(u) for u in units]
        return tuple(tuple(col[i] for col in cols)
                     for i in range(len(self.structure)))
