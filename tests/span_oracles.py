"""Span classes as member sets, and the direct sum of two objects: code
only the tests use.

The package stores a span class as the table of its partial map
dst -> src.  `span_members` reads the graph subgroup W of src + dst off
that table; `_graph_ok` and `span_from_members` are the member-set
checks and constructor that the table replaced, kept as its oracle.
`direct_sum` gives the biproduct of two objects of an instance with its
injections and projections.
"""

from qcat.errors import GuardError
from qcat.exact import Mor, Span


def span_members(inst, s: Span) -> frozenset:
    """The members (a, b) of the graph of s, a in src and b in dst."""
    xs, ys = inst.elements(s.src), inst.elements(s.dst)
    return frozenset((*xs[a], *ys[b]) for b, a in enumerate(s.table)
                     if a >= 0)


def _graph_ok(inst, x, y, members) -> tuple[bool, str]:
    nx = len(inst.moduli_of(x))
    proj = {w[:nx] for w in members}
    if len(proj) != inst.order(x):
        return False, "left leg is not surjective"
    for w in members:
        if any(w[:nx]) and not any(w[nx:]):
            return False, "right leg has a nontrivial kernel"
    return True, ""


def span_from_members(inst, x, y, members) -> Span:
    """The span class whose graph subgroup has these members, as a table;
    raises unless its left leg is onto and its right leg mono."""
    ok, why = _graph_ok(inst, x, y, members)
    if not ok:
        raise ValueError(f"not a valid span graph: {why}")
    nx = len(inst.moduli_of(x))
    index_x = {v: k for k, v in enumerate(inst.elements(x))}
    index_y = {v: k for k, v in enumerate(inst.elements(y))}
    table = [-1] * inst.order(y)
    for w in members:
        table[index_y[w[nx:]]] = index_x[w[:nx]]
    return Span(x, y, tuple(table))


def direct_sum(inst, x, y):
    """Returns (s, i1, i2, p1, p2); the summands land in the canonical
    object, whose components are the merged moduli in sorted order."""
    ex = list(inst._exps_of(x))
    ey = list(inst._exps_of(y))
    merged = ex + ey
    order = sorted(range(len(merged)), key=lambda t: (-merged[t], t))
    s = inst.object_of_structure(tuple(merged[t] for t in order))
    if s not in inst.objects():
        raise GuardError(f"direct sum {inst.label(x)}+{inst.label(y)} "
                         "exceeds the instance bound")
    slot = {src: i for i, src in enumerate(order)}
    nx, ny, ns = len(ex), len(ey), len(merged)
    i1 = tuple(tuple(int(slot[j] == i) for j in range(nx))
               for i in range(ns))
    i2 = tuple(tuple(int(slot[nx + j] == i) for j in range(ny))
               for i in range(ns))
    p1 = tuple(tuple(int(slot[i] == j) for j in range(ns))
               for i in range(nx))
    p2 = tuple(tuple(int(slot[nx + i] == j) for j in range(ns))
               for i in range(ny))
    return (s, Mor(x, s, i1), Mor(y, s, i2),
            Mor(s, x, p1), Mor(s, y, p2))
