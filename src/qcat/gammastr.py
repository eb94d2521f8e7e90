"""Pointed finite-set combinatorics for the delooping layer.

Finite sets with basepoint-absorbing partial maps form the indexing
category for direct-sum structures.  This module builds that category's
arrows, the contravariant cut functor from monotone maps with its
smashed powers, retraction sets, and the subset categories with their
restriction functors.  Everything is small enough to verify exhaustively.

The exhaustive checks compare cut actions as integer cut tables.  The
cuts of each [n] are numbered in sorted order; the table of a monotone
map g, read off `u_on_maps(g)`, holds for each cut of its target the
number of its image, or -1 for the basepoint.  Sets of cuts are bitmasks.
"""

from itertools import combinations, product as iproduct
from math import comb

from . import errors
from .fincat import FiniteCategory, FunctorData, composites
from .ordmaps import DeltaMap, all_maps
from .record import Record


class _Basepoint:
    __slots__ = ()

    def __repr__(self):
        return "*"


BASEPOINT = _Basepoint()


class LambdaMorphism(Record):
    """A map source -> target + basepoint, the arrows of the category of
    finite sets with partial basepointed maps."""

    __slots__ = ("source", "target", "pairs", "_assign")

    def __init__(self, source: frozenset, target: frozenset, pairs: tuple):
        assign = dict(pairs)
        if set(assign) != set(source):
            raise ValueError("assignment does not cover the source set")
        for v in assign.values():
            if v is not BASEPOINT and v not in target:
                raise ValueError(f"image {v!r} is outside the target set")
        self.source = source
        self.target = target
        self.pairs = pairs
        self._assign = assign

    def __call__(self, j):
        return self._assign[j]

    def is_identity(self) -> bool:
        return self.source == self.target and \
            all(self(j) == j for j in self.source)


def lam(source, target, mapping) -> LambdaMorphism:
    """Wrap a dict or callable as a basepointed map."""
    src = frozenset(source)
    if callable(mapping):
        mapping = {j: mapping(j) for j in src}
    pairs = tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0])))
    return LambdaMorphism(src, frozenset(target), pairs)


def lam_compose(g: LambdaMorphism, f: LambdaMorphism) -> LambdaMorphism:
    """g after f; anything hitting the basepoint stays there."""
    if f.target != g.source:
        raise ValueError("composition needs matching middle set")

    def step(j):
        mid = f(j)
        return BASEPOINT if mid is BASEPOINT else g(mid)

    return lam(f.source, g.target, step)


def all_lam(source, target):
    """Every basepointed map between the two sets, deterministically
    ordered."""
    src = sorted(source, key=repr)
    choices = [BASEPOINT] + sorted(target, key=repr)
    for images in iproduct(choices, repeat=len(src)):
        yield lam(source, target, dict(zip(src, images)))


def lam_preimage(phi: LambdaMorphism, subset) -> frozenset:
    """Elements of the source landing inside `subset` (never the
    basepoint)."""
    return frozenset(x for x in phi.source if phi(x) in subset)


# -- the cut functor -----------------------------------------------------


def u_on_objects(n: int) -> frozenset:
    """Monotone surjections [n] ->> [1], stored as value tuples.

    Each one is a cut: positions below the cut go to 0, the rest to 1,
    so there are exactly n of them.
    """
    if n < 0:
        raise ValueError("ordinals [n] need n >= 0")
    return frozenset(tuple(0 if k < i else 1 for k in range(n + 1))
                     for i in range(1, n + 1))


def u_on_maps(g: DeltaMap) -> LambdaMorphism:
    """Contravariant action on cuts: precompose and keep the result only
    when it still reaches both values."""
    def step(eta):
        composite = tuple(eta[v] for v in g.values)
        return composite if 0 in composite and 1 in composite else BASEPOINT

    return lam(u_on_objects(g.target_arity),
               u_on_objects(g.source_arity), step)


def retraction_set(s: int, alpha: DeltaMap) -> frozenset:
    """Cuts beta: [s] ->> [1] with beta(alpha(0)) = 0, beta(alpha(1)) = 1.

    A degenerate alpha (both legs on one vertex) admits none, so the
    result is simply empty in that case.
    """
    if alpha.source_arity != 1:
        raise ValueError("alpha must be an edge [1] -> [s]")
    if alpha.target_arity != s:
        raise ValueError(f"alpha lands in [{alpha.target_arity}], not [{s}]")
    return frozenset(beta for beta in u_on_objects(s)
                     if beta[alpha(0)] == 0 and beta[alpha(1)] == 1)


# -- subset categories ---------------------------------------------------


def L_of(i) -> FiniteCategory:
    """Category of subsets of i.

    A morphism K -> J is a basepointed map that fixes every element it
    does not kill and lands in J; equivalently, a choice of subset of
    K /\\ J.  The fixing condition is checked map by map rather than
    assumed.
    """
    ground = frozenset(i)
    subsets = [frozenset(c) for r in range(len(ground) + 1)
               for c in combinations(sorted(ground, key=repr), r)]
    morph = {}
    identity = {}
    for k in subsets:
        for j in subsets:
            for psi in all_lam(k, j):
                if all(psi(x) is BASEPOINT or psi(x) == x for x in k):
                    morph[psi] = (k, j)
                    if k == j and psi.is_identity():
                        identity[k] = psi
    return FiniteCategory(subsets, morph, identity,
                          composites(morph, lam_compose))


def L_restriction(phi: LambdaMorphism) -> FunctorData:
    """Preimage functor between subset categories along phi.

    phi maps one ground set into another (plus basepoint); subsets of
    the target pull back to subsets of the source, and a morphism that
    fixes S pulls back to the one fixing the preimage of S.
    """
    src_cat = L_of(phi.target)
    dst_cat = L_of(phi.source)
    on_objects = {j: lam_preimage(phi, j) for j in src_cat.objects}
    on_morphisms = {}
    for psi in src_cat.morphisms():
        k, j = src_cat.morph[psi]
        fixed = {x for x in k if psi(x) == x}
        on_morphisms[psi] = lam(on_objects[k], on_objects[j],
                                lambda x: x if phi(x) in fixed else BASEPOINT)
    return FunctorData(src_cat, dst_cat, on_objects, on_morphisms)


# -- exhaustive checks ---------------------------------------------------


class CheckReport:
    __slots__ = ("checked", "failures")

    def __init__(self, checked: int, failures: tuple):
        self.checked = checked
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures


def _cut_tables(maps):
    """The cut numbers of each ordinal the maps touch, and their tables."""
    numbers, tables = {}, []
    for g in maps:
        for n in (g.source_arity, g.target_arity):
            if n not in numbers:
                numbers[n] = {cut: k for k, cut in
                              enumerate(sorted(u_on_objects(n)))}
        u, into = u_on_maps(g), numbers[g.source_arity]
        tables.append(tuple(-1 if u(cut) is BASEPOINT else into[u(cut)]
                            for cut in numbers[g.target_arity]))
    return numbers, tables


def smash_table(t1, t2, width: int) -> tuple:
    """The cut table of u(g1) smash u(g2) from those of g1 and g2: cut pair
    (k1, k2) is entry k1 * len(t2) + k2, image pair (j1, j2) j1 * width + j2."""
    return tuple(-1 if j1 < 0 or j2 < 0 else j1 * width + j2
                 for j1 in t1 for j2 in t2)


def _preimage(table, mask: int) -> int:
    """The cuts a table sends into a set of cuts, both as bitmasks."""
    return sum(1 << k for k, j in enumerate(table) if j >= 0 and mask >> j & 1)


def _spread(mask: int, width: int) -> int:
    """Bit k moved to k * width; times a mask m2 of that width it is the
    smash of the two, pair (k1, k2) at bit k1 * width + k2."""
    return sum(1 << k * width for k in range(mask.bit_length())
               if mask >> k & 1)


def _require_comparisons(check: str, max_arity: int, count):
    """Raise unless max_arity >= 0 and count(n), the comparisons through
    arity n, is within READ_LIMIT for each n up to it, naming the first n
    over it: the counts grow with n, so a huge max_arity costs nothing."""
    if max_arity < 0:
        raise ValueError("max arity must be nonnegative")
    for n in range(max_arity + 1):
        errors.require(check, count(n), f"comparisons through arity {n}",
                       errors.READ_LIMIT)


def u_functoriality_report(max_arity: int) -> CheckReport:
    """Exhaustively compare u(g o h) with u(h) o u(g) over all
    composable pairs of monotone maps with arities up to max_arity,
    as cut tables: u(h) o u(g) reads h's table at each entry of g's."""
    arities = range(max_arity + 1)
    # one comparison per composable pair [a] -> [b] -> [c]; [a] -> [b] has
    # C(a+b+1, a+1) monotone maps
    _require_comparisons("u-functoriality", max_arity, lambda n: sum(
        comb(a + b + 1, a + 1) * comb(b + c + 1, b + 1)
        for a in range(n + 1) for b in range(n + 1) for c in range(n + 1)))
    rows = {}  # (a, b) -> (values, cut table) of each map [a] -> [b]
    table = {c: {} for c in arities}  # c -> values -> cut table
    for a in arities:
        for b in arities:
            maps = list(all_maps(a, b))
            rows[a, b] = list(zip([g.values for g in maps],
                                  _cut_tables(maps)[1]))
            table[b].update(rows[a, b])
    checked = 0
    failures = []
    for a in arities:
        for b in arities:
            for hv, th in rows[a, b]:
                th += (-1,)  # read at index -1, the basepoint stays put
                for c in arities:
                    row, into = rows[b, c], table[c]
                    checked += len(row)
                    for gv, tg in row:
                        if (into[tuple([gv[v] for v in hv])]
                                != tuple([th[k] for k in tg])):
                            failures.append((hv, gv))
    return CheckReport(checked, tuple(failures))


def retraction_naturality_report(max_arity: int) -> CheckReport:
    """Check that precomposing an edge commutes with pulling retraction
    sets back along the cut action, for single maps and for smashed
    pairs of maps with arities up to max_arity.  Each preimage is taken
    through a cut table: the map's own, or the smashed pair's."""
    arities = range(1, max_arity + 1)

    def comparisons(n):
        # one per map [s] -> [t] and edge [1] -> [s], and one per pair
        edges = sum(comb(s + t + 1, s + 1) * comb(s + 2, 2)
                    for s in range(1, n + 1) for t in range(1, n + 1))
        return edges + edges * edges

    _require_comparisons("retraction-naturality", max_arity, comparisons)
    maps = [g for s in arities for t in arities for g in all_maps(s, t)]
    numbers, tables = _cut_tables(maps)
    checked = 0
    failures = []
    # per map g and edge alpha: the retraction sets of g o alpha and of
    # alpha, as bitmasks
    singles = []
    for g, table in zip(maps, tables):
        s, t = g.source_arity, g.target_arity
        singles.append([])
        for alpha in all_maps(1, s):
            checked += 1
            lhs = sum(1 << numbers[t][cut]
                      for cut in retraction_set(t, g.compose(alpha)))
            rho = sum(1 << numbers[s][cut]
                      for cut in retraction_set(s, alpha))
            singles[-1].append((alpha, lhs, rho))
            if lhs != _preimage(table, rho):
                failures.append((g.values, alpha.values))
    for g1, t1, edges1 in zip(maps, tables, singles):
        pairs = [smash_table(t1, t2, g2.source_arity)
                 for g2, t2 in zip(maps, tables)]
        for a1, l1, r1 in edges1:
            for g2, edges2, pair in zip(maps, singles, pairs):
                checked += len(edges2)
                l_row = _spread(l1, g2.target_arity)
                r_row = _spread(r1, g2.source_arity)
                for a2, l2, r2 in edges2:
                    if l2 * l_row != _preimage(pair, r2 * r_row):
                        failures.append(((g1.values, a1.values),
                                         (g2.values, a2.values)))
    return CheckReport(checked, tuple(failures))
