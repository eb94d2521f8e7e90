"""Bounded concrete exact categories with a computable span calculus.

Two instances: finite-dimensional vector spaces over a prime field with a
dimension cap, and finite abelian p-groups with an order cap.  Both are
driven by the same engine: an object is typed by its moduli vector, maps
are integer matrices reduced mod the target moduli, and the admissible
classes are exactly the injective and surjective maps (quotients and
kernels stay within the bounds, so nothing needs to be excluded).

Morphisms in the span calculus are graph subgroups: the span
X <- U -> Y with epi left leg and mono right leg embeds into X + Y, and
the member set of its image W is the unique representative of the span's
isomorphism class.  Composition is relation composition of member sets.
The Hermite key of W (`zmod.subgroup_key`) only orders `all_spans` and
feeds the Smith path that unpacks a span's legs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import zmod
from .errors import GuardError


@dataclass(frozen=True)
class Mor:
    src: object
    dst: object
    rows: tuple

    def __repr__(self):
        return f"Mor({self.src!r}->{self.dst!r}, {self.rows!r})"


class Instance:
    """Shared engine; subclasses fix the object inventory and the typing
    of structure tuples back to objects.

    Element tuples and each span's legs are memoized on the instance.
    An object is only a typing value whose group depends on the instance
    (the object (1,) is Z/2 in abp:2:4 and Z/3 in abp:3:9), so these
    tables must never be shared between instances.
    """

    p: int  # the residue characteristic used for structure typing

    def __init__(self):
        self._elements = {}       # object -> tuple of its elements
        self._span_legs = {}      # Span -> (w, e: w ->> src, m: w >-> dst)

    def objects(self):
        raise NotImplementedError

    def moduli_of(self, x) -> tuple[int, ...]:
        raise NotImplementedError

    def object_of_structure(self, exps: tuple[int, ...]):
        raise NotImplementedError

    def label(self, x) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # -- generic layer ----------------------------------------------------

    def zero_object(self):
        return self.object_of_structure(())

    def elements(self, x) -> tuple:
        els = self._elements.get(x)
        if els is None:
            els = self._elements[x] = tuple(zmod.elements(self.moduli_of(x)))
        return els

    def order(self, x) -> int:
        n = 1
        for m in self.moduli_of(x):
            n *= m
        return n

    def identity(self, x) -> Mor:
        return Mor(x, x, zmod.identity_rows(self.moduli_of(x)))

    def hom(self, x, y) -> list[Mor]:
        return [Mor(x, y, rows)
                for rows in zmod.hom_rows(self.moduli_of(x),
                                          self.moduli_of(y))]

    def apply(self, f: Mor, v):
        return zmod.mat_apply(self.moduli_of(f.dst), f.rows, v)

    def compose(self, g: Mor, f: Mor) -> Mor:
        if f.dst != g.src:
            raise ValueError(f"cannot compose {g!r} after {f!r}")
        return Mor(f.src, g.dst,
                   zmod.mat_mul(self.moduli_of(g.dst), g.rows, f.rows,
                                len(self.moduli_of(f.src))))

    def is_mono(self, f: Mor) -> bool:
        z = zmod.zero(self.moduli_of(f.dst))
        hits = sum(1 for v in self.elements(f.src) if self.apply(f, v) == z)
        return hits == 1

    def is_epi(self, f: Mor) -> bool:
        image = {self.apply(f, v) for v in self.elements(f.src)}
        return len(image) == self.order(f.dst)

    # in these bounded abelian instances every mono and epi is admissible:
    # kernels, images and quotients never outgrow the ambient bound
    def is_ingressive(self, f: Mor) -> bool:
        return self.is_mono(f)

    def is_egressive(self, f: Mor) -> bool:
        return self.is_epi(f)

    def monos(self, x, y) -> list[Mor]:
        return [f for f in self.hom(x, y) if self.is_mono(f)]

    def epis(self, x, y) -> list[Mor]:
        return [f for f in self.hom(x, y) if self.is_epi(f)]

    def isos(self, x, y) -> list[Mor]:
        # a mono between finite groups of one order is onto
        if self.order(x) != self.order(y):
            return []
        return self.monos(x, y)

    def direct_sum(self, x, y):
        """Returns (s, i1, i2, p1, p2); the summands land in the canonical
        object, whose components are the merged moduli in sorted order."""
        ex = list(self._exps_of(x))
        ey = list(self._exps_of(y))
        merged = ex + ey
        order = sorted(range(len(merged)), key=lambda t: (-merged[t], t))
        s = self.object_of_structure(tuple(merged[t] for t in order))
        if s not in self.objects():
            raise GuardError(f"direct sum {self.label(x)}+{self.label(y)} "
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

    def cokernel(self, f: Mor):
        """Returns (c, q: f.dst -> c) with q the canonical projection."""
        struct, rows = zmod.quotient_map(self.moduli_of(f.dst),
                                         list(zip(*f.rows)), self.p)
        c = self.object_of_structure(struct)
        return c, Mor(f.dst, c, rows)

    def kernel(self, f: Mor):
        """Returns (k, i: k -> f.src) with i the canonical inclusion."""
        z = zmod.zero(self.moduli_of(f.dst))
        members = [v for v in self.elements(f.src) if self.apply(f, v) == z]
        struct, basis = zmod.subgroup_basis(self.moduli_of(f.src),
                                            members, self.p)
        k = self.object_of_structure(struct)
        return k, Mor(k, f.src, _columns(basis, len(self.moduli_of(f.src))))


def _columns(basis, n: int) -> tuple:
    """Rows of the map whose j-th column is basis[j]."""
    return tuple(tuple(b[i] for b in basis) for i in range(n))


class VectInstance(Instance):
    """F_q vector spaces of dimension at most d, q prime."""

    def __init__(self, q: int, d: int):
        if q < 2 or any(q % k == 0 for k in range(2, q)):
            raise ValueError(f"q must be prime, got {q}")
        if d < 0:
            raise ValueError("dimension bound must be nonnegative")
        super().__init__()
        self.q = q
        self.d = d
        self.p = q

    def objects(self):
        return tuple(range(self.d + 1))

    def moduli_of(self, x):
        return (self.q,) * x

    def object_of_structure(self, exps):
        if any(e != 1 for e in exps):
            raise ValueError(f"not a vector space structure: {exps}")
        return len(exps)

    def label(self, x):
        return "0" if x == 0 else f"F^{x}"

    def describe(self):
        return f"vect:{self.q}:{self.d}"

    def _exps_of(self, x):
        return (1,) * x


class AbPInstance(Instance):
    """Finite abelian p-groups of order at most `bound`."""

    def __init__(self, p: int, bound: int):
        if p < 2 or any(p % k == 0 for k in range(2, p)):
            raise ValueError(f"p must be prime, got {p}")
        if bound < 1:
            raise ValueError("order bound must be positive")
        super().__init__()
        self.p = p
        self.bound = bound
        self._moduli = {}

    def objects(self):
        out = [()]
        total = 1
        while self.p * total <= self.bound:
            total *= self.p
        max_sum = 0
        t = total
        while t > 1:
            t //= self.p
            max_sum += 1
        for s in range(1, max_sum + 1):
            out.extend(self._partitions(s))
        return tuple(sorted(out, key=lambda e: (sum(e), e)))

    @staticmethod
    def _partitions(s, cap=None):
        if cap is None:
            cap = s
        if s == 0:
            return [()]
        out = []
        for first in range(min(s, cap), 0, -1):
            for rest in AbPInstance._partitions(s - first, first):
                out.append((first,) + rest)
        return out

    def moduli_of(self, x):
        moduli = self._moduli.get(x)
        if moduli is None:
            moduli = self._moduli[x] = tuple(self.p ** e for e in x)
        return moduli

    def object_of_structure(self, exps):
        return tuple(exps)

    def label(self, x):
        if not x:
            return "0"
        return "+".join(f"Z/{self.p ** e}" for e in x)

    def describe(self):
        return f"abp:{self.p}:{self.bound}"

    def _exps_of(self, x):
        return x


# -- spans ------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """A morphism of the span category: the member set of the graph
    subgroup W of src + dst, which is its own canonical form.  The left
    leg W -> src is an admissible epi, and W meets src + 0 trivially
    (right leg mono)."""
    src: object
    dst: object
    members: frozenset

    def __repr__(self):
        return f"Span({self.src!r}->{self.dst!r}, {sorted(self.members)!r})"


def _pair_moduli(inst: Instance, x, y):
    return inst.moduli_of(x) + inst.moduli_of(y)


def _graph_ok(inst: Instance, x, y, members) -> tuple[bool, str]:
    nx = len(inst.moduli_of(x))
    proj = {w[:nx] for w in members}
    if len(proj) != inst.order(x):
        return False, "left leg is not surjective"
    for w in members:
        if any(w[:nx]) and not any(w[nx:]):
            return False, "right leg has a nontrivial kernel"
    return True, ""


def span_from_members(inst: Instance, x, y, members) -> Span:
    ok, why = _graph_ok(inst, x, y, members)
    if not ok:
        raise ValueError(f"not a valid span graph: {why}")
    return Span(x, y, frozenset(members))


def span_from_legs(inst: Instance, e: Mor, m: Mor) -> Span:
    """The span class with epi leg e: U -> X and mono leg m: U -> Y;
    raises if the legs are not admissible."""
    if e.src != m.src:
        raise ValueError("legs must share their source")
    if not inst.is_epi(e):
        raise ValueError("left leg must be an admissible epi")
    if not inst.is_mono(m):
        raise ValueError("right leg must be an admissible mono")
    members = {(*inst.apply(e, u), *inst.apply(m, u))
               for u in inst.elements(e.src)}
    return span_from_members(inst, e.dst, m.dst, members)


def span_legs(inst: Instance, s: Span):
    """Unpacks the span as (w, e: w -> src, m: w -> dst)."""
    legs = inst._span_legs.get(s)
    if legs is None:
        moduli = _pair_moduli(inst, s.src, s.dst)
        struct, basis = zmod.subgroup_basis(moduli, s.members, inst.p)
        w = inst.object_of_structure(struct)
        rows = _columns(basis, len(moduli))
        nx = len(inst.moduli_of(s.src))
        legs = inst._span_legs[s] = (w, Mor(w, s.src, rows[:nx]),
                                     Mor(w, s.dst, rows[nx:]))
    return legs


def identity_span(inst: Instance, x) -> Span:
    return span_from_members(inst, x, x,
                             {(*v, *v) for v in inst.elements(x)})


def all_spans(inst: Instance, x, y) -> list[Span]:
    """Every span class from x to y, ordered by the Hermite key of W."""
    moduli = _pair_moduli(inst, x, y)
    out = [Span(x, y, sub) for sub in zmod.all_subgroups(moduli)
           if _graph_ok(inst, x, y, sub)[0]]
    return sorted(out, key=lambda s: zmod.subgroup_key(moduli, s.members))


def span_compose(inst: Instance, t: Span, s: Span) -> Span:
    """t after s: relation composition of the graph subobjects."""
    if s.dst != t.src:
        raise ValueError("spans are not composable")
    nx = len(inst.moduli_of(s.src))
    ny = len(inst.moduli_of(s.dst))
    by_middle: dict = {}
    for w in t.members:
        by_middle.setdefault(w[:ny], []).append(w[ny:])
    members = {(*u[:nx], *z)
               for u in s.members for z in by_middle.get(u[nx:], ())}
    return span_from_members(inst, s.src, t.dst, members)


# -- ambigressive squares ----------------------------------------------------


@dataclass(frozen=True)
class Square:
    """A commuting square:  nw --top--> ne
                            |           |
                           left       right
                            v           v
                            sw -bottom-> se
    """
    top: Mor
    left: Mor
    right: Mor
    bottom: Mor

    @property
    def nw(self):
        return self.top.src

    @property
    def ne(self):
        return self.top.dst

    @property
    def sw(self):
        return self.bottom.src

    @property
    def se(self):
        return self.bottom.dst


def square_commutes(inst: Instance, sq: Square) -> bool:
    lhs = inst.compose(sq.right, sq.top)
    rhs = inst.compose(sq.bottom, sq.left)
    return lhs == rhs


def ambigressive_pullback(inst: Instance, i: Mor, e: Mor) -> Square:
    """Pullback of the cospan i: U >-> Y along e: V ->> Y, as the kernel
    of the difference map U + V -> Y.  The returned square has the
    pullback at nw, i at right, e at bottom."""
    if i.dst != e.dst:
        raise ValueError("legs must share their target")
    if not inst.is_mono(i):
        raise ValueError("first leg must be an admissible mono")
    if not inst.is_epi(e):
        raise ValueError("second leg must be an admissible epi")
    mu = inst.moduli_of(i.src)
    mv = inst.moduli_of(e.src)
    moduli = mu + mv
    nu = len(mu)
    members = [uv for uv in zmod.elements(moduli)
               if inst.apply(i, uv[:nu]) == inst.apply(e, uv[nu:])]
    struct, basis = zmod.subgroup_basis(moduli, members, inst.p)
    w = inst.object_of_structure(struct)
    rows = _columns(basis, len(moduli))
    sq = Square(top=Mor(w, i.src, rows[:nu]), left=Mor(w, e.src, rows[nu:]),
                right=i, bottom=e)
    if not square_commutes(inst, sq):
        raise ValueError("ambigressive pullback: square does not commute")
    # the size identity |W| |Y| = |U| |V| pins the pullback's order
    ow, oy, ou, ov = (inst.order(x) for x in (sq.nw, i.dst, i.src, e.src))
    if ow * oy != ou * ov:
        raise ValueError(f"ambigressive pullback: |W| |Y| = {ow} * {oy} "
                         f"but |U| |V| = {ou} * {ov}")
    return sq


def ambigressive_pushout(inst: Instance, i: Mor, e: Mor) -> Square:
    """Pushout of the span i: Y >-> U, e: Y ->> V: the quotient of U + V
    by the antidiagonal image of Y.  The returned square has Y at nw and
    the pushout at se."""
    if i.src != e.src:
        raise ValueError("legs must share their source")
    if not inst.is_mono(i):
        raise ValueError("first leg must be an admissible mono")
    if not inst.is_epi(e):
        raise ValueError("second leg must be an admissible epi")
    # the antidiagonal images of Y's generators: columns of i over -e
    anti = [(*(r[j] for r in i.rows), *(-r[j] for r in e.rows))
            for j in range(len(inst.moduli_of(i.src)))]
    mu = inst.moduli_of(i.dst)
    struct, proj = zmod.quotient_map(mu + inst.moduli_of(e.dst), anti, inst.p)
    w = inst.object_of_structure(struct)
    nu = len(mu)
    from_u = Mor(i.dst, w, tuple(row[:nu] for row in proj))
    from_v = Mor(e.dst, w, tuple(row[nu:] for row in proj))
    sq = Square(top=i, left=e, right=from_u, bottom=from_v)
    if not square_commutes(inst, sq):
        raise ValueError("ambigressive pushout: square does not commute")
    # the size identity |W| |Y| = |U| |V| pins the pushout's order
    ow, oy, ou, ov = (inst.order(x) for x in (w, i.src, i.dst, e.dst))
    if ow * oy != ou * ov:
        raise ValueError(f"ambigressive pushout: |W| |Y| = {ow} * {oy} "
                         f"but |U| |V| = {ou} * {ov}")
    return sq


def is_pullback_square(inst: Instance, sq: Square) -> bool:
    """Universal property by exhaustive cone enumeration over every
    object within the instance bounds."""
    if not square_commutes(inst, sq):
        return False
    for t in inst.objects():
        for f in inst.hom(t, sq.ne):
            rf = inst.compose(sq.right, f)
            for g in inst.hom(t, sq.sw):
                if rf != inst.compose(sq.bottom, g):
                    continue
                lifts = [h for h in inst.hom(t, sq.nw)
                         if inst.compose(sq.top, h) == f
                         and inst.compose(sq.left, h) == g]
                if len(lifts) != 1:
                    return False
    return True


def is_pushout_square(inst: Instance, sq: Square) -> bool:
    if not square_commutes(inst, sq):
        return False
    for t in inst.objects():
        for f in inst.hom(sq.ne, t):
            ft = inst.compose(f, sq.top)
            for g in inst.hom(sq.sw, t):
                if ft != inst.compose(g, sq.left):
                    continue
                fills = [h for h in inst.hom(sq.se, t)
                         if inst.compose(h, sq.right) == f
                         and inst.compose(h, sq.bottom) == g]
                if len(fills) != 1:
                    return False
    return True


def bicartesian_check(inst: Instance, sq: Square) -> bool:
    return is_pullback_square(inst, sq) and is_pushout_square(inst, sq)


def exact_sequence_squares(inst: Instance) -> list[Square]:
    """One square per admissible mono: U >-> Y ->> Y/U completed with the
    zero object, the standard short-exact-sequence square."""
    z = inst.zero_object()
    out = []
    for u in inst.objects():
        for y in inst.objects():
            for i in inst.monos(u, y):
                c, q = inst.cokernel(i)
                to_zero = Mor(u, z, ())
                from_zero = Mor(z, c, tuple(() for _ in inst.moduli_of(c)))
                out.append(Square(top=i, left=to_zero,
                                  right=q, bottom=from_zero))
    return out


# -- triple structure verification ------------------------------------------


@dataclass(frozen=True)
class TripleReport:
    passed: bool
    squares_checked: int
    failures: tuple[str, ...]


def verify_triple(inst: Instance, check_epis=None, check_monos=None) -> TripleReport:
    """For every cospan (mono into Y, epi onto Y): the ambigressive
    pullback exists within bounds, pulling back the epi gives an epi,
    pulling back the mono gives a mono, and the size identity holds.

    `check_epis`/`check_monos` override the enumerated classes (used by
    negative controls that corrupt the instance's notion of egressive).
    """
    epis_of = check_epis or (lambda v, y: inst.epis(v, y))
    monos_of = check_monos or (lambda u, y: inst.monos(u, y))
    objs = inst.objects()
    bounded = set(objs)
    # the fiber product W = {(x, w) : i(x) = e(w)} is never listed: the
    # order of (x, w) is max(ord x, ord w), so W's counts are sums over
    # x in U of counts tabulated once per fiber of e
    ords = {x: zmod.order_exps(inst.moduli_of(x), inst.elements(x), inst.p)
            for x in objs}
    top = max(max(o) for o in ords.values())
    empty = [0] * (top + 1)
    failures = []
    checked = 0
    for y in objs:
        y_order = inst.order(y)
        zero_y = zmod.zero(inst.moduli_of(y))
        # every epi onto y, once, with its fibers: image -> [#preimages
        # killed by p^k for k = 0..top]
        epis = []
        for v in objs:
            for e in epis_of(v, y):
                fibers = {}
                for w, o in zip(inst.elements(v), ords[v]):
                    cum = fibers.setdefault(inst.apply(e, w), [0] * (top + 1))
                    for k in range(o, top + 1):
                        cum[k] += 1
                epis.append((v, inst.order(v), fibers))
        for u in objs:
            u_order = inst.order(u)
            for i in monos_of(u, y):
                images = [inst.apply(i, x) for x in inst.elements(u)]
                # (x, 0) lies in W exactly when i(x) = e(0) = 0
                mono = images.count(zero_y) == 1
                for v, v_order, fibers in epis:
                    checked += 1
                    # killed[k] = #members of W killed by p^k; |W| at top
                    killed = [0] * (top + 1)
                    for im, o in zip(images, ords[u]):
                        cum = fibers.get(im, empty)
                        for k in range(o, top + 1):
                            killed[k] += cum[k]
                    problems = []
                    if killed[top] * y_order != u_order * v_order:
                        problems.append("size identity fails")
                    if not all(im in fibers for im in images):
                        problems.append("pulled-back epi is not epi")
                    if not mono:
                        problems.append("pulled-back mono is not mono")
                    struct = zmod.structure_from_killed(killed, inst.p)
                    try:
                        w_obj = inst.object_of_structure(struct)
                    except ValueError:
                        w_obj = None
                    if w_obj is None or w_obj not in bounded:
                        problems.append("pullback escapes bounds")
                    if problems:
                        where = (f"i: {inst.label(u)}>->{inst.label(y)}, "
                                 f"e: {inst.label(v)}->>{inst.label(y)}")
                        failures.extend(f"{where}: {why}" for why in problems)
                        if len(failures) >= 5:
                            return TripleReport(False, checked,
                                                tuple(failures))
    return TripleReport(not failures, checked, tuple(failures))


def all_maps_egressive(inst: Instance):
    """Negative-control leg class: pretends every map is an admissible
    epi.  Feed to verify_triple's check_epis."""
    return lambda v, y: inst.hom(v, y)


def parse_instance(descriptor: str) -> Instance:
    """Parses "vect:q:d" or "abp:p:bound"."""
    parts = descriptor.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"instance descriptor {descriptor!r}: expected kind:a:b")
    kind, a, b = parts
    try:
        a, b = int(a), int(b)
    except ValueError:
        raise ValueError(
            f"instance descriptor {descriptor!r}: parameters must be integers")
    if kind == "vect":
        return VectInstance(a, b)
    if kind == "abp":
        return AbPInstance(a, b)
    raise ValueError(f"instance descriptor {descriptor!r}: unknown kind")
