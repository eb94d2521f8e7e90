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
from qcat.exact import parse_instance
from qcat.snf import smith_diagonal, torsion_from_diagonal

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
    psi = {m: length(inst, inst.order(s.dst)) - length(inst, len(s.members))
           for m, s in qc.span_of.items()}
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
