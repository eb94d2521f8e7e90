"""Span classes as member sets, and the direct sum of two objects: code
only the tests use.

The package stores a span class as the table of its partial map
dst -> src.  `span_members` reads the graph subgroup W of src + dst off
that table; `_graph_ok` and `span_from_members` are the member-set
checks and constructor that the table replaced, kept as its oracle.
`direct_sum` gives the biproduct of two objects of an instance with its
injections and projections, typed by their exponents (`exps_of`).
`reference_relative_q_objects` is the relative span category as it was
built before it composed on the span table: a five-deep search for each
morphism datum and an ambigressive pullback and a search for beta for
each composite.
"""

from qcat import zmod
from qcat.errors import GuardError
from qcat.exact import Mor, Span, ambigressive_pullback


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


def exps_of(inst, x) -> tuple:
    """The exponents e_i of x's moduli p^e_i: the orders of its unit
    vectors."""
    moduli = inst.moduli_of(x)
    return tuple(zmod.order_exps(moduli, zmod.identity_rows(moduli), inst.p))


def direct_sum(inst, x, y):
    """Returns (s, i1, i2, p1, p2); the summands land in the canonical
    object, whose components are the merged moduli in sorted order."""
    ex = list(exps_of(inst, x))
    ey = list(exps_of(inst, y))
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


def _auto_inverse(inst, sigma: Mor) -> Mor:
    ident = inst.identity(sigma.src)
    return next(tau for tau in inst.isos(sigma.src, sigma.src)
                if inst.compose(sigma, tau) == ident)


def _datum_class_key(psi, w, w_u: Mor, w_v: Mor, alpha: Mor, beta: Mor):
    """Canonical key of a morphism datum modulo automorphisms of the
    bridge object w."""
    s, t = psi.source, psi.target
    best = None
    for sigma in s.isos(w, w):
        inv = _auto_inverse(s, sigma)
        variant = (w,
                   s.compose(w_u, sigma).rows,
                   s.compose(w_v, sigma).rows,
                   alpha.rows,
                   t.compose(psi.on_mor(inv), beta).rows)
        if best is None or variant < best:
            best = variant
    return best


def reference_relative_q_objects(psi) -> tuple:
    """The `morph`, `identity` and `compose_table` dicts of
    `deviss.relative_q_objects(psi)`, by search."""
    s, t = psi.source, psi.target
    sources = s.objects()
    objects = [(u, x, g) for u in sources for x in t.objects()
               for g in t.hom(x, psi.on_object(u))]

    def raw_morphisms(src_obj, dst_obj):
        (v, y, h), (u, x, g) = src_obj, dst_obj
        y_order = t.order(y)
        y_els = t.elements(y)
        x_els = t.elements(x)
        out = []
        for w in sources:
            psi_w = psi.on_object(w)
            epis_wv = s.epis(w, v)
            if not epis_wv:
                continue
            for w_u in s.monos(w, u):
                pw_u = psi.on_mor(w_u)
                fibre = {}
                for e in t.elements(psi_w):
                    im = t.apply(pw_u, e)
                    fibre[im] = fibre.get(im, 0) + 1
                if sum(fibre.get(t.apply(g, xe), 0) for xe in x_els) \
                        != y_order:
                    continue
                for w_v in epis_wv:
                    pw_v = psi.on_mor(w_v)
                    for alpha in t.hom(y, x):
                        g_alpha = t.compose(g, alpha)
                        for beta in t.hom(y, psi_w):
                            if t.compose(pw_u, beta) != g_alpha:
                                continue
                            if t.compose(pw_v, beta) != h:
                                continue
                            joint = {(t.apply(alpha, e), t.apply(beta, e))
                                     for e in y_els}
                            if len(joint) != y_order:
                                continue
                            out.append((w, w_u, w_v, alpha, beta))
        return out

    morph = {}
    datum_of = {}
    for a in objects:
        for b in objects:
            for datum in raw_morphisms(a, b):
                name = (a, b, _datum_class_key(psi, *datum))
                if name not in morph:
                    morph[name] = (a, b)
                    datum_of[name] = datum

    identity = {}
    for (u, x, g) in objects:
        key = _datum_class_key(psi, u, s.identity(u), s.identity(u),
                               t.identity(x), g)
        identity[(u, x, g)] = ((u, x, g), (u, x, g), key)

    def compose_data(m2, m1):
        w2, w2_u, w2_v, alpha2, beta2 = datum_of[m2]
        w1, w1_u, w1_v, alpha1, beta1 = datum_of[m1]
        # w1_u lands mono in the middle slot, w2_v epi onto it
        bridge_sq = ambigressive_pullback(s, w1_u, w2_v)
        w = bridge_sq.nw
        w_u = s.compose(w2_u, bridge_sq.left)
        w_v = s.compose(w1_v, bridge_sq.top)
        alpha = t.compose(alpha2, alpha1)
        z = m1[0][1]
        want_2 = t.compose(beta2, alpha1)
        p_top = psi.on_mor(bridge_sq.top)
        p_left = psi.on_mor(bridge_sq.left)
        beta = next(b for b in t.hom(z, psi.on_object(w))
                    if t.compose(p_top, b) == beta1
                    and t.compose(p_left, b) == want_2)
        return w, w_u, w_v, alpha, beta

    compose_table = {
        (m2, m1): (m1[0], m2[1],
                   _datum_class_key(psi, *compose_data(m2, m1)))
        for m2, (src2, _) in morph.items()
        for m1, (_, dst1) in morph.items() if dst1 == src2}
    return morph, identity, compose_table
