"""Exact normal forms for integer matrices.

Everything here runs on plain Python ints, so ranks and torsion
coefficients stay exact no matter how the elementary operations grow
intermediate entries.  Matrices are sequences of row sequences; callers
pass the column count explicitly so empty matrices keep their shape.

`smith_diagonal` works in two steps.  A sparse step eliminates ±1
pivots: each one is cleared from its column by row operations and its
row and column are dropped, which splits off a unit diagonal entry
(Kaczynski, Mrozek & Ślusarek 1998; Dumas, Saunders & Villard 2001).
Boundary matrices of simplicial sets have entries ±1 and few per row, so
this step usually leaves nothing.  What remains, such as the Z/2 of the
projective plane, goes to `smith_form`, the one dense Smith routine.

`smith_form` also returns its column transform and that transform's
inverse.  The boundary reductions read only the diagonal; `zmod` uses
the transforms to turn a subgroup or quotient lattice into independent
generators or a projection matrix (`zmod.subgroup_basis`,
`zmod.quotient_map`).
"""

from __future__ import annotations

import heapq


def _checked(rows, n_cols):
    a = [list(r) for r in rows]
    n = n_cols if n_cols is not None else (len(a[0]) if a else 0)
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")
    return a, n


def smith_diagonal(rows, n_cols: int | None = None) -> list[int]:
    """Nonnegative diagonal of the Smith normal form, divisibility-chained.

    Returns [d_1, d_2, ...] with d_1 | d_2 | ..., zeros trimmed, so the
    length is the rank of the matrix over the rationals.
    """
    a, _ = _checked(rows, n_cols)
    units, rest = _eliminate_unit_pivots(a)
    live = sorted({j for r in rest for j in r})
    remainder = [[r.get(j, 0) for j in live] for r in rest]
    return [1] * units + smith_form(remainder, len(live))[0]


def _eliminate_unit_pivots(a):
    """Split off ±1 pivots; returns their count and the nonzero remainder
    rows as {column: entry} dicts.

    Each step takes, among the columns holding a ±1 entry, one with the
    fewest entries (ties to the lower column index), and in it the ±1 row
    with the fewest entries (ties to the lower row index).  Row operations
    clear the column, after which the pivot's row and column split off as
    a [±1] block.  The operations are unimodular, so the diagonal of the
    remainder completes the Smith diagonal.
    """
    rows = [{j: x for j, x in enumerate(r) if x} for r in a]
    cols = {}
    for i, r in enumerate(rows):
        for j in r:
            cols.setdefault(j, set()).add(i)
    # (entries, column) candidates; stale ones are skipped when popped, and
    # a column comes back whenever an elimination changes its entries
    heap = [(len(s), j) for j, s in cols.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        count, c = heapq.heappop(heap)
        if c not in cols or len(cols[c]) != count:
            continue
        unit_rows = [i for i in cols[c] if rows[i][c] in (1, -1)]
        if not unit_rows:
            continue
        p = min(unit_rows, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for i in cols.pop(c):
            if i == p:
                continue
            row = rows[i]
            f = row[c] * prow[c]  # the pivot is its own inverse
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    if j != c:
                        cols[j].discard(i)
        for j in prow:
            if j != c:
                cols[j].discard(p)
                heapq.heappush(heap, (len(cols[j]), j))
        rows[p] = {}
        units += 1
    return units, [r for r in rows if r]


def smith_form(rows, n_cols: int | None = None):
    """Dense Smith normal form with its column transform.

    Returns (diag, v, v_inv): `diag` as in `smith_diagonal`, and v, v_inv
    mutually inverse unimodular n_cols x n_cols matrices such that
    u·a·v = D for some unimodular u, where D carries `diag` on its
    diagonal and zeros elsewhere.  Row operations are not recorded.
    """
    a, n = _checked(rows, n_cols)
    m = len(a)
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    v_inv = [r[:] for r in v]

    def swap_columns(t, j):
        for r in a:
            r[t], r[j] = r[j], r[t]
        for r in v:
            r[t], r[j] = r[j], r[t]
        v_inv[t], v_inv[j] = v_inv[j], v_inv[t]

    diag = []
    t = 0
    while True:
        if not any(a[i][j] for i in range(t, m) for j in range(t, n)):
            break
        while True:
            # clean column t: bring a minimal entry to the pivot, reduce below
            while True:
                nz = [i for i in range(t, m) if a[i][t]]
                if not nz:
                    # pull some nonzero column into position t
                    swap_columns(t, next(j for j in range(t + 1, n)
                                         if any(a[i][j] for i in range(t, m))))
                    continue
                imin = min(nz, key=lambda i: abs(a[i][t]))
                a[t], a[imin] = a[imin], a[t]
                clean = True
                for i in range(t + 1, m):
                    if a[i][t]:
                        q = a[i][t] // a[t][t]
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                        if a[i][t]:
                            clean = False
                if clean:
                    break
            # clean row t with column operations; swaps may dirty the column
            swapped = False
            for j in range(t + 1, n):
                if a[t][j]:
                    # column j -= q * column t, so row t of v_inv += q * row j
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    for r in v:
                        r[j] -= q * r[t]
                    v_inv[t] = [x + q * y for x, y in zip(v_inv[t], v_inv[j])]
                    if a[t][j]:
                        swap_columns(t, j)
                        swapped = True
            if not swapped:
                break
        # the pivot must divide the remaining block; fold an offender in
        piv = a[t][t]
        offender = next((i for i in range(t + 1, m)
                         if any(a[i][j] % piv for j in range(t + 1, n))), None)
        if offender is not None:
            for j in range(t, n):
                a[t][j] += a[offender][j]
            continue
        # a negative pivot is a row sign, which u absorbs
        diag.append(abs(piv))
        t += 1
    return diag, v, v_inv


def torsion_from_diagonal(diag) -> list[int]:
    """The entries > 1, i.e. orders of the finite cyclic summands."""
    return [d for d in diag if d > 1]


def hermite_rows(rows, n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Output rows are in echelon order with positive pivots and the entries
    above each pivot reduced into [0, pivot); zero rows are dropped.  This
    is the unique canonical basis of the integer row span, so tuple
    equality of the results decides lattice equality.
    """
    a, n = _checked(rows, n_cols)
    a = [r for r in a if any(r)]
    pivots: list[list[int]] = []
    for col in range(n):
        live = [r for r in a if r[col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            nxt = [base]
            for r in live[1:]:
                q = r[col] // base[col]
                for j in range(col, n):
                    r[j] -= q * base[j]
                if r[col]:
                    nxt.append(r)
            live = nxt
        base = live[0]
        if base[col] < 0:
            for j in range(col, n):
                base[j] = -base[j]
        pivots.append(base)
        a = [r for r in a if r is not base and any(r)]
    # Reduce above-pivot entries in increasing pivot order: clearing with a
    # lower pivot only dirties columns that a later, lower pivot still owns.
    for i, upper in enumerate(pivots):
        for row in pivots[i + 1 :]:
            pcol = next(j for j in range(n) if row[j])
            q = upper[pcol] // row[pcol]
            if q:
                for j in range(pcol, n):
                    upper[j] -= q * row[j]
    return tuple(tuple(r) for r in pivots)
