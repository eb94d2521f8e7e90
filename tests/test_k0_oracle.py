"""Quillen's comparison with K_0 as an oracle for `k0`.

`k0` reads the class group off pi_1 of the span category Q(C).  Two checks
here use neither the nerve nor Tietze moves (Quillen, LNM 341, 1973, §2):

- Check A is the Grothendieck group itself: Z^objects modulo [0] and
  modulo [B] - [A] - [C] for every subgroup A <= B with quotient C,
  reduced by `smith_diagonal`.
- Check B is the comparison map psi(X <<- W >-> Y) = l(Y) - l(W), with l
  the length (log_p of the order, or the dimension).  The pullback of
  W >-> Y along V ->> Y has length l(W) + l(V) - l(Y), so psi is a functor
  Q(C) -> Z, and the abelianized pi_1 maps onto K_0 = Z by length.
"""

import pytest

from qcat import fincat, qcons, zmod
from qcat.errors import GuardError
from qcat.exact import Mor, parse_instance, span_from_legs, span_legs
from qcat.snf import smith_diagonal, torsion_from_diagonal
from span_oracles import direct_sum, span_members

SMALL = ["vect:2:1", "vect:2:2", "vect:3:2", "abp:2:4", "abp:3:9"]


def grothendieck_group(inst):
    """(rank, torsion) of Z^objects / ([0], [B] - [A] - [C] for A <= B)."""
    objs = inst.objects()
    col = {x: k for k, x in enumerate(objs)}
    rows = [[int(x == inst.zero_object()) for x in objs]]
    for b in objs:
        moduli = inst.moduli_of(b)
        for sub in zmod.all_subgroups(moduli):
            a = zmod.subgroup_basis(moduli, sub, inst.p)[0]
            c = zmod.quotient_map(moduli, list(sub), inst.p)[0]
            row = [0] * len(objs)
            row[col[b]] += 1
            row[col[inst.object_of_structure(a)]] -= 1
            row[col[inst.object_of_structure(c)]] -= 1
            rows.append(row)
    diag = smith_diagonal(rows, len(objs))
    return len(objs) - len(diag), tuple(torsion_from_diagonal(diag))


@pytest.mark.parametrize("desc", SMALL)
def test_k0_is_the_grothendieck_group(desc):
    rep = qcons.k0(parse_instance(desc))
    assert grothendieck_group(parse_instance(desc)) == (rep.betti, rep.torsion)


@pytest.mark.parametrize("desc", ["abp:2:8", "abp:5:25"])
def test_grothendieck_group_of_the_larger_instances_is_z(desc):
    # `k0 abp:5:25` takes about a minute; one simple object makes K_0 = Z
    assert grothendieck_group(parse_instance(desc)) == (1, ())


def length(inst, order: int) -> int:
    n = 0
    while order > 1:
        order //= inst.p
        n += 1
    return n


def comparison_map(qc) -> dict:
    """psi = l(Y) - l(W) of each morphism name of the span category."""
    inst = qc.instance
    return {m: length(inst, inst.order(s.dst))
            - length(inst, len(span_members(inst, s)))
            for m, s in qc.span_of.items()}


def generator_values(cat, psi) -> dict:
    """psi of each generator of `fincat.pi1_presentation(cat)`: psi of its
    edge plus psi along the spanning tree to its source, minus that to its
    target.  The tree is the breadth-first one of
    `simpset.edge_path_presentation`, rebuilt here."""
    ids = set(cat.identity.values())
    edges = {m: cat.morph[m] for m in sorted(
        (m for m in cat.morph if m not in ids), key=lambda m: repr((m,)))}
    adj = {}
    for e, (a, b) in edges.items():
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    root = sorted(cat.objects, key=repr)[0]
    pot = {root: 0}        # psi along the tree path from the root
    tree = set()
    frontier = [root]
    while frontier:
        nxt = []
        for v in sorted(frontier, key=repr):
            for u, e in sorted(adj.get(v, []),
                               key=lambda p: (repr(p[0]), repr((p[1],)))):
                if u not in pot:
                    pot[u] = pot[v] + (psi[e] if edges[e][0] == v else -psi[e])
                    tree.add(e)
                    nxt.append(u)
        frontier = nxt
    gens = [e for e, (a, _) in edges.items() if e not in tree and a in pot]
    return {f"g{k}": psi[e] + pot[edges[e][0]] - pot[edges[e][1]]
            for k, e in enumerate(gens)}


@pytest.mark.parametrize("desc", SMALL)
def test_comparison_map_is_a_functor_onto_the_length(desc):
    # A corrupted composite with another |W| breaks additivity below.  One
    # that keeps |W| (another span of the same pair and apex order) passes
    # every check here; only `fincat.check_axioms` can catch it.
    inst = parse_instance(desc)
    qc = qcons.q_category(inst)
    cat = qc.category
    psi = comparison_map(qc)
    assert all(psi[cat.identity[x]] == 0 for x in cat.objects)
    for (g, f), gf in cat.compose_table.items():
        assert psi[gf] == psi[g] + psi[f], (g, f)
    raw = fincat.pi1_presentation(cat)
    values = generator_values(cat, psi)
    assert tuple(values) == raw.generators
    for rel in raw.relators:
        assert sum(e * values[g] for g, e in rel) == 0, rel
    survivors = raw.simplified().generators
    assert survivors
    assert all(abs(values[g]) == 1 for g in survivors)


# -- direct sum as a functor on Q(C) -----------------------------------------
#
# Direct sum makes BQC an infinite loop space.  The first thing that needs
# is a functor Q(C) x Q(C) -> Q(C) that adds psi, so that it induces the
# addition of K_0.


def _add(inst, f: Mor, g: Mor) -> Mor:
    """f + g, for two maps with one source and one target."""
    return Mor(f.src, f.dst, tuple(
        tuple((a + b) % n for a, b in zip(rf, rg))
        for rf, rg, n in zip(f.rows, g.rows, inst.moduli_of(f.dst))))


def span_sum(inst, s, t, first_only=False):
    """s + t: the span X1 + X2 <<- V1 + V2 >-> Y1 + Y2 whose legs are
    i1 f1 p1 + i2 f2 p2 for the legs f1 of s and f2 of t, through the
    injections and projections of `direct_sum`.  With `first_only` both
    summands go through the first injection."""
    (v1, e1, m1), (v2, e2, m2) = span_legs(inst, s), span_legs(inst, t)
    p1, p2 = direct_sum(inst, v1, v2)[3:]
    legs = []
    for f1, f2 in ((e1, e2), (m1, m2)):
        i1, i2 = direct_sum(inst, f1.dst, f2.dst)[1:3]
        if first_only:
            i2 = i1
        legs.append(_add(inst, inst.compose(i1, inst.compose(f1, p1)),
                         inst.compose(i2, inst.compose(f2, p2))))
    return span_from_legs(inst, *legs)


def sum_functor_failures(qc, plus) -> tuple[int, list[str]]:
    """(checks, failures) of `plus` as a functor Q(C) x Q(C) -> Q(C) that
    adds psi: identities go to identities, (g1 f1) + (g2 f2) = (g1 + g2)
    (f1 + f2) for table entries whose targets sum within the bound, paired
    by those targets, and psi(s + t) = psi(s) + psi(t).  A sum that is no
    class of the instance counts as a failure."""
    inst, cat = qc.instance, qc.category
    psi = comparison_map(qc)
    fits = {}
    for x in cat.objects:
        for y in cat.objects:
            try:
                fits[(x, y)] = direct_sum(inst, x, y)[0]
            except GuardError:
                pass
    sums = {}

    def plus_name(f, g):
        if (f, g) not in sums:
            try:
                sums[(f, g)] = qc.name_of.get(
                    plus(inst, qc.span_of[f], qc.span_of[g]))
            except ValueError:
                sums[(f, g)] = None
        return sums[(f, g)]

    checks, failures = 0, []
    for (x, y), xy in fits.items():
        checks += 1
        if plus_name(cat.identity[x], cat.identity[y]) != cat.identity[xy]:
            failures.append(f"id {x!r} + id {y!r}")
    entries = {}
    for (g, f), gf in cat.compose_table.items():
        entries.setdefault(cat.morph[g][1], []).append((g, f, gf))
    for z1, z2 in fits:
        for g1, f1, gf1 in entries.get(z1, ()):
            for g2, f2, gf2 in entries.get(z2, ()):
                checks += 1
                g, f = plus_name(g1, g2), plus_name(f1, f2)
                if None in (g, f) or \
                        cat.compose_table.get((g, f)) != plus_name(gf1, gf2):
                    failures.append(f"({g1} {f1}) + ({g2} {f2})")
    for (f, g), fg in sums.items():
        checks += 1
        if fg is None or psi[fg] != psi[f] + psi[g]:
            failures.append(f"psi({f} + {g})")
    return checks, failures


@pytest.mark.parametrize("desc,checks", [
    ("abp:2:4", 404), ("vect:2:2", 342), ("abp:3:9", 7374)])
def test_direct_sum_is_a_functor_adding_psi(desc, checks):
    qc = qcons.q_category(parse_instance(desc))
    assert sum_functor_failures(qc, span_sum) == (checks, [])


def test_a_sum_through_the_first_injection_only_fails():
    qc = qcons.q_category(parse_instance("abp:2:4"))
    _, failures = sum_functor_failures(
        qc, lambda inst, s, t: span_sum(inst, s, t, first_only=True))
    assert "id (1,) + id (1,)" in failures
