"""Bounded concrete exact categories with a computable span calculus.

Two instances: finite-dimensional vector spaces over a prime field with a
dimension cap, and finite abelian p-groups with an order cap.  Both are
driven by the same engine: an object is typed by its moduli vector, maps
are integer matrices reduced mod the target moduli, and the admissible
classes are exactly the injective and surjective maps (quotients and
kernels stay within the bounds, so nothing needs to be excluded).

Morphisms in the span calculus are partial-map tables.  The span
X <- U -> Y with epi left leg and mono right leg embeds into X + Y as a
graph subgroup W, and because the right leg is mono W is the graph of a
partial map Y -> X defined on a subgroup V of Y.  Its table over the
elements of Y is the unique representative of the span's isomorphism
class.  `all_spans` enumerates the classes as the pairs (V <= Y, epi
V ->> X) and records each class's legs for `span_legs`; composition is
composition of tables, and a cospan's pullback is the class whose table
is its graph (`pullback_legs`).  The Hermite key (`zmod.subgroup_key`)
of W orders `all_spans`, and `is_mono` and `is_epi` read the index of a
map's image off the pivots of its key.  Kernels and span apexes are
built by `Instance._subobject`, cokernels by `_quotient`.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

from . import errors, zmod
from .record import Record


class Mor(Record):
    __slots__ = ("src", "dst", "rows")

    def __init__(self, src, dst, rows: tuple):
        self.src = src
        self.dst = dst
        self.rows = rows

    def __repr__(self):
        return f"Mor({self.src!r}->{self.dst!r}, {self.rows!r})"


class Instance:
    """Shared engine; subclasses fix the object inventory and the typing
    of structure tuples back to objects.  `_subobject` and `_quotient`
    are its one subgroup routine and its one quotient routine.

    Element tuples, each map's element-index table (`table`), the
    subgroup inclusions into each object, the span classes of each pair
    of objects and each span's legs are memoized on the instance.
    An object is only a typing value whose group depends on the instance
    (the object (1,) is Z/2 in abp:2:4 and Z/3 in abp:3:9), so these
    tables must never be shared between instances.
    """

    p: int  # the residue characteristic used for structure typing

    def __init__(self):
        self._elements = {}       # object -> tuple of its elements
        self._tables = {}         # Mor -> its element-index table
        self._subobjects = {}     # y -> [inclusion V >-> y per subgroup]
        self._spans = {}          # (x, y) -> tuple of all_spans(x, y)
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
        return prod(self.moduli_of(x))

    def identity(self, x) -> Mor:
        return Mor(x, x, zmod.identity_rows(self.moduli_of(x)))

    def hom(self, x, y) -> list[Mor]:
        return [Mor(x, y, rows)
                for rows in zmod.hom_rows(self.moduli_of(x),
                                          self.moduli_of(y))]

    def apply(self, f: Mor, v):
        return zmod.mat_apply(self.moduli_of(f.dst), f.rows, v)

    def table(self, f: Mor) -> tuple:
        """Entry a is the index in `elements(f.dst)` of the image of the
        a-th element of f.src."""
        t = self._tables.get(f)
        if t is None:
            index = {v: k for k, v in enumerate(self.elements(f.dst))}
            t = self._tables[f] = tuple(index[self.apply(f, v)]
                                        for v in self.elements(f.src))
        return t

    def compose(self, g: Mor, f: Mor) -> Mor:
        if f.dst != g.src:
            raise ValueError(f"cannot compose {g!r} after {f!r}")
        return Mor(f.src, g.dst,
                   zmod.mat_mul(self.moduli_of(g.dst), g.rows, f.rows,
                                len(self.moduli_of(f.src))))

    def _image_index(self, f: Mor) -> int:
        """[f.dst : f(f.src)], the product of the image key's pivots."""
        key = zmod.subgroup_key(self.moduli_of(f.dst), list(zip(*f.rows)))
        return prod(row[i] for i, row in enumerate(key))

    def is_mono(self, f: Mor) -> bool:
        return self.order(f.src) * self._image_index(f) == self.order(f.dst)

    def is_epi(self, f: Mor) -> bool:
        return self._image_index(f) == 1

    def monos(self, x, y) -> list[Mor]:
        return [f for f in self.hom(x, y) if self.is_mono(f)]

    def epis(self, x, y) -> list[Mor]:
        return [f for f in self.hom(x, y) if self.is_epi(f)]

    def isos(self, x, y) -> list[Mor]:
        # a mono between finite groups of one order is onto
        if self.order(x) != self.order(y):
            return []
        return self.monos(x, y)

    def _subobject(self, moduli, members):
        """The subgroup generated by `members`, as (object, inclusion)."""
        struct, basis = zmod.subgroup_basis(moduli, members, self.p)
        rows = tuple(tuple(b[i] for b in basis) for i in range(len(moduli)))
        return self.object_of_structure(struct), rows

    def _quotient(self, moduli, gens):
        """The quotient by the span of `gens`, as (object, projection)."""
        struct, rows = zmod.quotient_map(moduli, gens, self.p)
        return self.object_of_structure(struct), rows

    def cokernel(self, f: Mor):
        """Returns (c, q: f.dst -> c) with q the canonical projection."""
        c, rows = self._quotient(self.moduli_of(f.dst), list(zip(*f.rows)))
        return c, Mor(f.dst, c, rows)

    def kernel(self, f: Mor):
        """Returns (k, i: k -> f.src) with i the canonical inclusion."""
        z = zmod.zero(self.moduli_of(f.dst))
        members = [v for v in self.elements(f.src) if self.apply(f, v) == z]
        k, rows = self._subobject(self.moduli_of(f.src), members)
        return k, Mor(k, f.src, rows)


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % k for k in range(2, isqrt(q) + 1))


class VectInstance(Instance):
    """F_q vector spaces of dimension at most d, q prime."""

    def __init__(self, q: int, d: int):
        if not _is_prime(q):
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


class AbPInstance(Instance):
    """Finite abelian p-groups of order at most `bound`."""

    def __init__(self, p: int, bound: int):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if bound < 1:
            raise ValueError("order bound must be positive")
        super().__init__()
        self.p = p
        self.bound = bound
        self._moduli = {}

    def objects(self):
        # the types of order p^s for every s with p^s within the bound
        top = 0
        while self.p ** (top + 1) <= self.bound:
            top += 1
        return tuple(sorted((e for s in range(top + 1)
                             for e in self._partitions(s, s)),
                            key=lambda e: (sum(e), e)))

    @staticmethod
    def _partitions(s, cap):
        """The partitions of s into parts of at most cap, largest first."""
        if s == 0:
            return [()]
        return [(first,) + rest for first in range(min(s, cap), 0, -1)
                for rest in AbPInstance._partitions(s - first, first)]

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


# -- spans ------------------------------------------------------------------


class Span(Record):
    """A morphism of the span category as the table of its partial map
    dst -> src: entry b is the index in `inst.elements(src)` of the image
    of the b-th element of dst, or -1 off the subgroup V the map is
    defined on.  The graph of that map is the graph subgroup of the
    class, so the table is its canonical form."""
    __slots__ = ("src", "dst", "table")

    def __init__(self, src, dst, table: tuple):
        self.src = src
        self.dst = dst
        self.table = table

    def __repr__(self):
        return f"Span({self.src!r}->{self.dst!r}, {self.table!r})"


def span_from_legs(inst: Instance, e: Mor, m: Mor) -> Span:
    """The span class with epi leg e: U -> X and mono leg m: U -> Y;
    raises if the legs are not admissible."""
    if e.src != m.src:
        raise ValueError("legs must share their source")
    if not inst.is_epi(e):
        raise ValueError("left leg must be an admissible epi")
    if not inst.is_mono(m):
        raise ValueError("right leg must be an admissible mono")
    table = [-1] * inst.order(m.dst)
    for b, a in zip(inst.table(m), inst.table(e)):
        table[b] = a
    return Span(e.dst, m.dst, tuple(table))


def span_legs(inst: Instance, s: Span):
    """The legs (w, e: w ->> src, m: w >-> dst) that `all_spans` built the
    class s from; raises ValueError if s is no span class of the instance."""
    legs = inst._span_legs.get(s)
    if legs is None:
        all_spans(inst, s.src, s.dst)
        legs = inst._span_legs.get(s)
        if legs is None:
            raise ValueError(f"{s!r} is no span class of {inst.describe()}")
    return legs


def identity_span(inst: Instance, x) -> Span:
    return Span(x, x, tuple(range(inst.order(x))))


def all_spans(inst: Instance, x, y) -> list[Span]:
    """Every span class from x to y, ordered by the Hermite key of W, as
    a fresh list; the classes are enumerated once per instance and pair,
    as the pairs (V <= y, epi V ->> x), each of which is one class, and
    the inclusions V >-> y once per instance and y.  W is generated by
    the images (e(v), m(v)) of V's generators v, the columns of the legs."""
    spans = inst._spans.get((x, y))
    if spans is None:
        incls = inst._subobjects.get(y)
        if incls is None:
            moduli = inst.moduli_of(y)
            incls = []
            for sub in zmod.all_subgroups(moduli):
                v, rows = inst._subobject(moduli, sub)
                incls.append(Mor(v, y, rows))
            inst._subobjects[y] = incls
        legs = {span_from_legs(inst, e, m): (m.src, e, m)
                for m in incls for e in inst.epis(m.src, x)}
        inst._span_legs.update(legs)
        moduli = inst.moduli_of(x) + inst.moduli_of(y)
        key = {s: zmod.subgroup_key(moduli, list(zip(*e.rows, *m.rows)))
               for s, (_, e, m) in legs.items()}
        spans = inst._spans[(x, y)] = tuple(sorted(legs, key=key.__getitem__))
    return list(spans)


def span_compose(inst: Instance, t: Span, s: Span) -> Span:
    """t after s: the partial map t's table, then s's."""
    if s.dst != t.src:
        raise ValueError("spans are not composable")
    back = s.table + (-1,)
    return Span(s.src, t.dst, tuple(map(back.__getitem__, t.table)))


# -- ambigressive squares ----------------------------------------------------


class Square(Record):
    """A commuting square:  nw --top--> ne
                            |           |
                           left       right
                            v           v
                            sw -bottom-> se
    """
    __slots__ = ("top", "left", "right", "bottom")

    def __init__(self, top: Mor, left: Mor, right: Mor, bottom: Mor):
        self.top = top
        self.left = left
        self.right = right
        self.bottom = bottom

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
    return inst.compose(sq.right, sq.top) == inst.compose(sq.bottom, sq.left)


def _require_legs(inst: Instance, i: Mor, e: Mor, shared: bool, end: str):
    """Raise unless i is a mono, e an epi and they share their `end`."""
    if not shared:
        raise ValueError(f"legs must share their {end}")
    if not inst.is_mono(i):
        raise ValueError("first leg must be an admissible mono")
    if not inst.is_epi(e):
        raise ValueError("second leg must be an admissible epi")


def _require_ambigressive(inst: Instance, sq: Square, kind: str, w, y):
    """Raise unless sq commutes and the size identity |W| |Y| = |U| |V|
    (U at ne, V at sw) pins the order of the new corner W."""
    if not square_commutes(inst, sq):
        raise ValueError(f"ambigressive {kind}: square does not commute")
    ow, oy, ou, ov = (inst.order(x) for x in (w, y, sq.ne, sq.sw))
    if ow * oy != ou * ov:
        raise ValueError(f"ambigressive {kind}: |W| |Y| = {ow} * {oy} "
                         f"but |U| |V| = {ou} * {ov}")
    return sq


def pullback_legs(inst: Instance, right: Mor, bottom: Mor):
    """The pullback of right: ne >-> se along bottom: sw ->> se, as the
    legs (w, top: w ->> ne, left: w >-> sw) of the span class whose graph
    is P = {(a, b) : right(a) = bottom(b)}, or None if no class has it.
    As right is mono, P is the graph of a partial map sw -> ne, read off
    the legs' tables; only |P| |se| = |ne| |sw| is checked, not the legs."""
    over = {c: a for a, c in enumerate(inst.table(right))}
    table = tuple(over.get(c, -1) for c in inst.table(bottom))
    if (len(table) - table.count(-1)) * inst.order(right.dst) != \
            inst.order(right.src) * inst.order(bottom.src):
        return None
    try:
        return span_legs(inst, Span(right.src, bottom.src, table))
    except ValueError:
        return None


def ambigressive_pullback(inst: Instance, i: Mor, e: Mor) -> Square:
    """Pullback of the cospan i: U >-> Y along e: V ->> Y, by
    `pullback_legs`.  The returned square has the pullback at nw, i at
    right, e at bottom."""
    _require_legs(inst, i, e, i.dst == e.dst, "target")
    legs = pullback_legs(inst, i, e)
    if legs is None:
        raise ValueError(f"ambigressive pullback: no span class "
                         f"{inst.label(i.src)} <<- W >-> {inst.label(e.src)} "
                         f"has the pullback graph")
    w, top, left = legs
    sq = Square(top=top, left=left, right=i, bottom=e)
    return _require_ambigressive(inst, sq, "pullback", w, i.dst)


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


class TripleReport(Record):
    __slots__ = ("passed", "squares_checked", "failures")

    def __init__(self, passed: bool, squares_checked: int,
                 failures: tuple[str, ...]):
        self.passed = passed
        self.squares_checked = squares_checked
        self.failures = failures


def verify_triple(inst: Instance) -> TripleReport:
    """For every cospan (mono into Y, epi onto Y): the ambigressive
    pullback exists within bounds, pulling back the epi gives an epi,
    pulling back the mono gives a mono, and the size identity holds.
    The pullback W lies within bounds exactly when, for each k, it has
    as many elements killed by p^k as some object has.

    The leg classes are read from `inst.epis` and `inst.monos`, so an
    instance whose classes are corrupted (say `inst.epis = inst.hom`)
    is checked as it stands.  The maps those walk are counted before any
    is listed, and the cospans before any is checked, each held to
    SIZE_LIMIT; the image and fiber tables' element reads, at most the
    maps' applications to their sources, are held to READ_LIMIT.
    """
    objs = inst.objects()
    # monos and epis each walk every hom(v, y), whose entry (i, j) takes
    # gcd(n_i, m_j) values; the tables apply at most each to all of v
    homs = {v: sum(prod(gcd(n, m) for n in inst.moduli_of(y)
                        for m in inst.moduli_of(v)) for y in objs)
            for v in objs}
    errors.require("triple verification", 2 * sum(homs.values()), "maps",
                   errors.SIZE_LIMIT)
    errors.require("triple verification",
                   2 * sum(n * inst.order(v) for v, n in homs.items()),
                   "element applications", errors.READ_LIMIT)
    by_target = [(y, [i for u in objs for i in inst.monos(u, y)],
                  [e for v in objs for e in inst.epis(v, y)]) for y in objs]
    errors.require("triple verification",
                   sum(len(monos) * len(epis) for _, monos, epis in by_target),
                   "cospans", errors.SIZE_LIMIT)
    # the fiber product W = {(x, w) : i(x) = e(w)} is never listed: the
    # order of (x, w) is max(ord x, ord w), so W's counts are sums over
    # x in U of counts tabulated once per fiber of e
    ords = {x: zmod.order_exps(inst.moduli_of(x), inst.elements(x), inst.p)
            for x in objs}
    top = max(max(o) for o in ords.values())
    empty = [0] * (top + 1)
    # a finite abelian p-group's type is fixed by how many elements each
    # p^k kills, and W <= U + V has exponent at most top, so W lies within
    # bounds exactly when its counts for k = 0..top are some object's
    bounded = {tuple(sum(o <= k for o in ords[x]) for k in range(top + 1))
               for x in objs}
    failures = []
    checked = 0
    for y, monos, epis in by_target:
        y_order = inst.order(y)
        zero_y = zmod.zero(inst.moduli_of(y))
        # every epi onto y with its fibers: image -> [#preimages killed by
        # p^k for k = 0..top]
        fibered = []
        for e in epis:
            fibers = {}
            for w, o in zip(inst.elements(e.src), ords[e.src]):
                cum = fibers.setdefault(inst.apply(e, w), [0] * (top + 1))
                for k in range(o, top + 1):
                    cum[k] += 1
            fibered.append((e.src, inst.order(e.src), fibers))
        for i in monos:
            u = i.src
            u_order = inst.order(u)
            images = [inst.apply(i, x) for x in inst.elements(u)]
            # (x, 0) lies in W exactly when i(x) = e(0) = 0
            mono = images.count(zero_y) == 1
            for v, v_order, fibers in fibered:
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
                if tuple(killed) not in bounded:
                    problems.append("pullback escapes bounds")
                if problems:
                    where = (f"i: {inst.label(u)}>->{inst.label(y)}, "
                             f"e: {inst.label(v)}->>{inst.label(y)}")
                    failures.extend(f"{where}: {why}" for why in problems)
                    if len(failures) >= 5:
                        return TripleReport(False, checked, tuple(failures))
    return TripleReport(not failures, checked, tuple(failures))


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
