"""Pointed finite-set combinatorics for the delooping layer.

Finite sets with basepoint-absorbing partial maps form the indexing
category for direct-sum structures.  This module builds that category's
arrows, the smash product, the contravariant cut functor from monotone
maps, retraction sets, and the subset categories with their restriction
functors.  Everything is small enough to verify exhaustively.
"""

from itertools import combinations, product as iproduct

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


# -- smash product -------------------------------------------------------


def smash(i, j) -> frozenset:
    """Product of underlying sets; basepoints of the factors collapse,
    which is why there is no extra point to track."""
    return frozenset((a, b) for a in i for b in j)


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


def u_power(n: int, gs) -> LambdaMorphism:
    """Componentwise cut action on n-tuples, smashed together.

    The one-fold smash is the identity, so n = 1 gives back the plain
    cut action on raw cuts rather than on 1-tuples.
    """
    gs = tuple(gs)
    if len(gs) != n:
        raise ValueError(f"expected {n} maps, got {len(gs)}")
    if n == 1:
        return u_on_maps(gs[0])
    parts = [u_on_maps(g) for g in gs]

    def step(etas):
        images = [p(eta) for p, eta in zip(parts, etas)]
        if any(im is BASEPOINT for im in images):
            return BASEPOINT
        return tuple(images)

    source = frozenset(iproduct(*[p.source for p in parts]))
    target = frozenset(iproduct(*[p.target for p in parts]))
    return lam(source, target, step)


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


def u_functoriality_report(max_arity: int) -> CheckReport:
    """Exhaustively compare u(g o h) with u(h) o u(g) over all
    composable pairs of monotone maps with arities up to max_arity."""
    if max_arity < 0:
        raise ValueError("max arity must be nonnegative")
    cache = {}

    def u_of(g):
        u = cache.get(g)
        if u is None:
            u = cache[g] = u_on_maps(g)
        return u

    checked = 0
    failures = []
    arities = range(max_arity + 1)
    for a in arities:
        for b in arities:
            for h in all_maps(a, b):
                uh = u_of(h)
                for c in arities:
                    for g in all_maps(b, c):
                        checked += 1
                        lhs = u_of(g.compose(h))
                        rhs = lam_compose(uh, u_of(g))
                        if lhs != rhs:
                            failures.append((h.values, g.values))
    return CheckReport(checked, tuple(failures))


def retraction_naturality_report(max_arity: int) -> CheckReport:
    """Check that precomposing an edge commutes with pulling retraction
    sets back along the cut action, for single maps and for smashed
    pairs of maps with arities up to max_arity."""
    if max_arity < 0:
        raise ValueError("max arity must be nonnegative")
    singles = []
    for s in range(1, max_arity + 1):
        for t in range(1, max_arity + 1):
            for g in all_maps(s, t):
                for alpha in all_maps(1, s):
                    singles.append((g, alpha))
    checked = 0
    failures = []
    sets = []  # per single, its retraction sets after the edge and before g
    for g, alpha in singles:
        checked += 1
        lhs = retraction_set(g.target_arity, g.compose(alpha))
        rho = retraction_set(g.source_arity, alpha)
        sets.append((lhs, rho))
        if lhs != lam_preimage(u_on_maps(g), rho):
            failures.append((g.values, alpha.values))
    # singles sharing a g are adjacent: keep u_power(2, (g1, g2)) by g2
    # only while g1 stays the same
    powers, g_now = {}, None
    for ((g1, a1), (l1, r1)), ((g2, a2), (l2, r2)) in iproduct(
            zip(singles, sets), repeat=2):
        checked += 1
        if g1 != g_now:
            powers, g_now = {}, g1
        if g2 not in powers:
            powers[g2] = u_power(2, (g1, g2))
        if smash(l1, l2) != lam_preimage(powers[g2], smash(r1, r2)):
            failures.append(((g1.values, a1.values), (g2.values, a2.values)))
    return CheckReport(checked, tuple(failures))
