import random
from math import prod
from pathlib import Path

import pytest

from qcat.formats import load_sset
from qcat.snf import (
    hermite_rows,
    smith_diagonal,
    smith_form,
    torsion_from_diagonal,
)

sympy = pytest.importorskip("sympy")


def sympy_smith(rows, n_cols):
    from sympy.matrices.normalforms import smith_normal_form

    m = sympy.Matrix(len(rows), n_cols, [x for r in rows for x in r])
    d = smith_normal_form(m)
    out = [abs(int(d[i, i])) for i in range(min(d.rows, d.cols))]
    return [x for x in out if x]


def test_smith_known_values():
    assert smith_diagonal([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 3) == [2, 6, 12]
    assert smith_diagonal([], 3) == []
    assert smith_diagonal([[0, 0], [0, 0]], 2) == []


def test_smith_classic_divisibility_example():
    d = smith_diagonal([[12, 6, 4], [3, 9, 6], [2, 16, 14]], 3)
    nonzero = [x for x in d if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_smith_matches_sympy_on_random_matrices():
    rng = random.Random(20260816)
    for _ in range(150):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        assert smith_diagonal(rows, n) == sympy_smith(rows, n), rows


def sparse_random(rng, m, n, values, density):
    return [[rng.choice(values) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def unimodular(rng, k, steps):
    """Identity moved by random row additions, swaps and negations."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(steps):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            u[i] = [-x for x in u[i]]
        elif rng.random() < 0.3:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def matmul(a, b, n):
    return [[sum(x * b[k][j] for k, x in enumerate(r)) for j in range(n)]
            for r in a]


def assert_oracles_agree(rows, n, with_sympy):
    d = smith_diagonal(rows, n)
    diag, v, v_inv = smith_form(rows, n)
    assert d == diag, rows
    if with_sympy:
        assert d == sympy_smith(rows, n), rows
    # v is unimodular with inverse v_inv, and a·v spans the same row
    # lattice as the diagonal form: u·a·v = D for a unimodular u
    assert matmul(v, v_inv, n) == [[int(i == j) for j in range(n)]
                                   for i in range(n)], rows
    d_rows = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)]
              for i in range(len(rows))]
    assert hermite_rows(matmul(rows, v, n), n) == hermite_rows(d_rows, n), rows


def test_smith_on_unit_entry_matrices_matches_dense_and_sympy():
    rng = random.Random(20261018)
    for trial in range(120):
        m, n = rng.randrange(1, 13), rng.randrange(1, 13)
        rows = sparse_random(rng, m, n, (1, -1), rng.choice((0.15, 0.3, 0.6)))
        assert_oracles_agree(rows, n, with_sympy=trial < 40)


def test_smith_keeps_torsion_of_disguised_diagonals():
    rng = random.Random(7)
    for trial in range(80):
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        entries = [rng.choice((1, 1, 2, 4, 6, 0)) for _ in range(min(m, n))]
        d = [[entries[i] if i == j and i < len(entries) else 0
              for j in range(n)] for i in range(m)]
        rows = matmul(matmul(unimodular(rng, m, 2 * m), d, n),
                      unimodular(rng, n, 2 * n), n)
        expected = [x for x in entries if x]
        d = smith_diagonal(rows, n)
        assert (len(d), prod(d)) == (len(expected), prod(expected)), rows
        assert_oracles_agree(rows, n, with_sympy=trial < 30)


def test_smith_ignores_zero_rows_and_columns():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randrange(1, 10), rng.randrange(1, 10)
        rows = sparse_random(rng, m, n, (1, -1, 2, -3), 0.35)
        for i in rng.sample(range(m), rng.randrange(m + 1)):
            rows[i] = [0] * n
        for j in rng.sample(range(n), rng.randrange(n + 1)):
            for r in rows:
                r[j] = 0
        assert_oracles_agree(rows, n, with_sympy=False)
        live = [j for j in range(n) if any(r[j] for r in rows)]
        core = [[r[j] for j in live] for r in rows if any(r)]
        assert smith_diagonal(rows, n) == smith_diagonal(core, len(live))


def test_smith_on_large_sparse_matrices_matches_dense():
    rng = random.Random(3)
    for _ in range(6):
        m, n = rng.randrange(20, 41), rng.randrange(20, 41)
        rows = sparse_random(rng, m, n, (1, -1, 1, -1, 2), 0.1)
        assert_oracles_agree(rows, n, with_sympy=False)


def test_smith_on_empty_shapes():
    for m, n in [(0, 0), (0, 4), (3, 0)]:
        rows = [[0] * n for _ in range(m)]
        assert smith_diagonal(rows, n) == []
        assert smith_form(rows, n)[0] == []


def test_smith_rejects_ragged_input():
    with pytest.raises(ValueError):
        smith_diagonal([[1, 2], [3]], 2)
    with pytest.raises(ValueError):
        smith_diagonal([[1, 2], [3, 4]], 3)


def test_smith_of_projective_plane_boundary_keeps_z2():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    rp2 = load_sset((fixtures / "rp2.sset").read_text(encoding="utf-8"))
    rows, _, cols = rp2.boundary_matrix(2)
    assert smith_diagonal(rows, len(cols)) == [1] * 9 + [2]


def integer_rank(rows, n_cols=None):
    return len(smith_diagonal(rows, n_cols))


def test_torsion_and_rank_helpers():
    d = smith_diagonal([[2, 0, 0], [0, 6, 0]], 3)
    assert torsion_from_diagonal(d) == [2, 6]
    assert integer_rank([[1, 2], [2, 4]], 2) == 1
    assert integer_rank([[1, 0], [0, 1]], 2) == 2


def test_hermite_known_value():
    h = hermite_rows([[3, -5, 3], [-4, -3, -4], [6, 1, -1]], 3)
    assert h == ((1, 0, 43), (0, 1, 147), (0, 0, 203))


def test_hermite_structure_and_lattice_invariance():
    # The output must be a canonical basis: unchanged under any
    # lattice-preserving shuffle of the generating rows.
    rng = random.Random(99)
    for _ in range(300):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        h = hermite_rows(rows, n)

        rows2 = [list(r) for r in rows]
        rng.shuffle(rows2)
        for _ in range(6):
            i = rng.randrange(m)
            j = rng.randrange(m)
            if i == j:
                rows2[i] = [-x for x in rows2[i]]
            else:
                c = rng.randrange(-3, 4)
                rows2[i] = [a + c * b for a, b in zip(rows2[i], rows2[j])]
        assert hermite_rows(rows2, n) == h, (rows, rows2)

        pcols = [next(k for k in range(n) if r[k]) for r in h]
        assert pcols == sorted(pcols)
        assert len(set(pcols)) == len(pcols)
        for r, pc in zip(h, pcols):
            assert r[pc] > 0
            assert all(r[k] == 0 for k in range(pc))
        for lower, pc in enumerate(pcols):
            for upper in range(lower):
                assert 0 <= h[upper][pc] < h[lower][pc]


def test_hermite_pivot_product_matches_smith_in_full_rank_square_case():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        d = [x for x in smith_diagonal(rows, n) if x]
        h = hermite_rows(rows, n)
        if len(d) < n:
            continue
        pivs = [r[next(k for k in range(n) if r[k])] for r in h]
        assert prod(pivs) == prod(d)


def test_hermite_rejects_ragged_input():
    with pytest.raises(ValueError):
        hermite_rows([[1, 2], [3]], 2)
