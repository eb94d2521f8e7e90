"""Finite abelian groups presented as products of cyclic groups.

Everything works over a "moduli vector" (m_1, ..., m_r): the group
Z/m_1 x ... x Z/m_r, elements stored as length-r tuples reduced mod the
componentwise moduli.  A subgroup is its key: the Hermite basis of its
preimage lattice in Z^r (`subgroup_key`), which is unique, so equal
subgroups have equal keys.  `all_subgroups` lists the keys directly as
the triangular matrices that contain every m_i e_i, without building
any subgroup's elements; the key rows generate the subgroup, so they
are also the input of the Smith path below.  The key contains every
m_i e_i, so it is square, and its pivots multiply to the subgroup's
index: `exact` reads a map's mono and epi verdicts off its image's key.

One path types a subgroup, the Smith path: `subgroup_basis` and
`quotient_map` start from generators, Hermite-reduce them with the
moduli, and read the invariant factors, bases and projections off one
Smith form with transforms.  Its callers are the span legs, kernels,
cokernels, pushouts and filtration stages.  `order_exps` only counts:
a finite abelian p-group's type is fixed by how many elements each p^k
kills, so `exact.verify_triple` compares those counts with the objects'
own and types nothing.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .snf import hermite_rows, smith_form

Moduli = tuple[int, ...]
Elem = tuple[int, ...]


def elements(moduli: Moduli) -> list[Elem]:
    return list(product(*[range(m) for m in moduli]))


def zero(moduli: Moduli) -> Elem:
    return (0,) * len(moduli)


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


def all_subgroups(moduli: Moduli) -> list[tuple]:
    """Every subgroup, as its key (`subgroup_key`), in sorted order: the
    upper triangular matrices with pivot i dividing m_i, the entries above
    each pivot reduced below it, and rows that contain every m_i e_i
    (`_solve_moduli`), each of which is the key of exactly one subgroup."""
    r = len(moduli)
    keys = []
    for pivots in product(*[[d for d in range(1, m + 1) if m % d == 0]
                            for m in moduli]):
        cells = [range(pivots[j]) if i < j else (pivots[j] if i == j else 0,)
                 for i in range(r) for j in range(r)]
        for flat in product(*cells):
            lat = tuple(flat[i * r:(i + 1) * r] for i in range(r))
            if _solve_moduli(moduli, lat) is not None:
                keys.append(lat)
    return sorted(keys)


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


def _solve_moduli(moduli: Moduli, lat):
    """The rows c_i with m_i e_i = c_i·L, for L upper triangular with
    nonzero pivots, by substitution; None when a division is inexact,
    that is when the rows of L do not contain some m_i e_i."""
    r = len(moduli)
    c = []
    for i, m in enumerate(moduli):
        row = [0] * r
        for j in range(i, r):
            acc = (m if j == i else 0) - sum(row[k] * lat[k][j]
                                              for k in range(i, j))
            row[j], rem = divmod(acc, lat[j][j])
            if rem:
                return None
        c.append(row)
    return c


def _exact_log(p: int, n: int) -> int:
    k = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{n} is not a power of {p}")
        n //= p
        k += 1
    return k


def order_exps(moduli: Moduli, els, p: int) -> list[int]:
    """For each element of `els`, the k with p^k its order."""
    table = {m: [_exact_log(p, m // gcd(m, c)) for c in range(m)]
             for m in set(moduli)}
    return [max((table[m][c % m] for c, m in zip(x, moduli)), default=0)
            for x in els]


def subgroup_basis(moduli: Moduli, gens, p: int):
    """(structure, basis) of the subgroup H generated by `gens`:
    invariant-factor exponents (nonincreasing) and independent generators
    realizing them, basis[i] of order p^structure[i].

    With L the Hermite basis of the preimage lattice (`subgroup_key`),
    H = L / diag(moduli).  Writing diag(moduli) = c·L (`_solve_moduli`)
    and u·c·v = D in Smith form, the rows of v^-1·L generate H
    independently, each of order its Smith entry.
    """
    lat = subgroup_key(moduli, gens)
    r = len(moduli)
    diag, _, v_inv = smith_form(_solve_moduli(moduli, lat), r)
    keep = [i for i in reversed(range(r)) if diag[i] > 1]
    basis = [tuple(sum(x * row[j] for x, row in zip(v_inv[i], lat)) % m
                   for j, m in enumerate(moduli)) for i in keep]
    return tuple(_exact_log(p, diag[i]) for i in keep), basis


def quotient_map(moduli: Moduli, gens, p: int):
    """(structure, rows) of the quotient by the subgroup generated by
    `gens`: invariant-factor exponents (nonincreasing) and the matrix of
    a projection onto the matching product of cyclic groups.

    With u·L·v = D in Smith form for the Hermite basis L of the preimage
    lattice, x -> x·v reduced mod the Smith entries has kernel exactly
    the subgroup, so the rows are the columns of v with entries > 1.
    """
    lat = subgroup_key(moduli, gens)
    diag, v, _ = smith_form(lat, len(moduli))
    keep = [i for i in reversed(range(len(diag))) if diag[i] > 1]
    rows = tuple(tuple(row[i] % diag[i] for row in v) for i in keep)
    return tuple(_exact_log(p, diag[i]) for i in keep), rows
