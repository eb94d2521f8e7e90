"""The span category of a bounded exact instance.

Morphisms X -> Y are isomorphism classes of spans X <<- U >-> Y with an
egressive left leg and an ingressive right leg, composed by pullback.
The class group of the instance falls out as the abelianized fundamental
group of this category's nerve.

Ambigressive diagrams (the triangular grids whose elementary squares are
all ambigressive pullbacks) are enumerated from scratch here, so the
spine comparison against composable span strings is a real check and not
a restatement of the construction.
"""

from dataclasses import dataclass, field

from .errors import GuardError
from .exact import (
    Instance,
    Mor,
    Square,
    all_spans,
    bicartesian_check,
    identity_span,
    span_compose,
    span_legs,
    square_commutes,
    verify_triple,
)
from .fincat import FiniteCategory, nerve, require_category
from .presentation import GroupPresentation


@dataclass(frozen=True)
class QCategory:
    instance: Instance
    category: FiniteCategory
    span_of: dict = field(compare=False)    # morphism name -> Span
    name_of: dict = field(compare=False)    # Span -> morphism name


def q_category(inst: Instance, verify: bool = True) -> QCategory:
    """Builds the span category on the instance's objects.

    With `verify` the triple structure is re-checked first; span
    composition is only associative because ambigressive pullbacks
    compose, so a corrupted instance must fail loudly here rather than
    in some later composition-table lookup.
    """
    if verify:
        report = verify_triple(inst)
        if not report.passed:
            raise ValueError("instance fails triple verification: "
                             + "; ".join(report.failures[:3]))
    objs = inst.objects()
    span_of = {}
    name_of = {}
    morphisms = {}
    for x in objs:
        for y in objs:
            for k, s in enumerate(all_spans(inst, x, y)):
                name = f"{inst.label(x)}=>{inst.label(y)}#{k}"
                span_of[name] = s
                name_of[s] = name
                morphisms[name] = (x, y)
    identity = {x: name_of[identity_span(inst, x)] for x in objs}
    table = {}
    for f, (x, y) in morphisms.items():
        for g, (y2, z) in morphisms.items():
            if y2 != y:
                continue
            table[(g, f)] = name_of[span_compose(inst, span_of[g],
                                                 span_of[f])]
    cat = FiniteCategory(objs, morphisms, identity, table)
    require_category(cat)
    return QCategory(inst, cat, span_of, name_of)


def abelian_label(betti: int, torsion) -> str:
    parts = []
    if betti == 1:
        parts.append("Z")
    elif betti > 1:
        parts.append(f"Z^{betti}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class K0Report:
    instance: str
    depth: int | None
    raw_presentation: GroupPresentation
    presentation: GroupPresentation
    betti: int
    torsion: tuple[int, ...]

    @property
    def label(self) -> str:
        return abelian_label(self.betti, self.torsion)


def k0(inst: Instance, depth: int | None = None) -> K0Report:
    """Class group of the instance, read off the span category's nerve.

    pi_1 reads only the 2-skeleton, so the nerve is built through
    min(depth, 2); `depth` (echoed as given) must be at least 2.  Leave
    it None only when the category has no composable nonidentity strings
    beyond some finite length.
    """
    if depth is not None and depth < 2:
        raise ValueError("k0 needs the nerve through dimension 2")
    qc = q_category(inst)
    ns = nerve(qc.category, None if depth is None else min(depth, 2))
    if len(ns.components()) != 1:
        raise ValueError("span category nerve is disconnected")
    raw = ns.pi1_presentation()
    simplified = raw.simplified()
    betti, torsion = simplified.abelianization()
    return K0Report(inst.describe(), depth, raw, simplified,
                    betti, tuple(torsion))


# -- ambigressive diagrams ---------------------------------------------------


@dataclass
class AmbigressiveDiagram:
    """Triangular grid X_ij (0 <= i <= j <= n).

    `epis[(i, j)]` is the egressive step X_ij ->> X_i,j-1 and
    `monos[(i, j)]` the ingressive step X_ij >-> X_i+1,j; longer
    structure maps are composites of these.
    """
    n: int
    objects: dict
    epis: dict
    monos: dict

    def egressive_to(self, inst: Instance, i: int, j: int, l: int) -> Mor:
        f = inst.identity(self.objects[(i, j)])
        for col in range(j, l, -1):
            f = inst.compose(self.epis[(i, col)], f)
        return f

    def ingressive_to(self, inst: Instance, i: int, j: int, k: int) -> Mor:
        f = inst.identity(self.objects[(i, j)])
        for row in range(i, k):
            f = inst.compose(self.monos[(row, j)], f)
        return f


def check_diagram(inst: Instance, d: AmbigressiveDiagram) -> list[str]:
    """Exhaustive invariant check: leg admissibility and every interior
    square bicartesian.  Returns problem descriptions, [] when clean."""
    problems = []
    for (i, j), e in d.epis.items():
        if not inst.is_egressive(e):
            problems.append(f"step X_{i}{j} -> X_{i}{j - 1} is not egressive")
    for (i, j), m in d.monos.items():
        if not inst.is_ingressive(m):
            problems.append(f"step X_{i}{j} -> X_{i + 1}{j} is not ingressive")
    if problems:
        return problems
    for i in range(d.n + 1):
        for k in range(i + 1, d.n + 1):
            for l in range(k, d.n + 1):
                for j in range(l + 1, d.n + 1):
                    sq = Square(
                        top=d.egressive_to(inst, i, j, l),
                        left=d.ingressive_to(inst, i, j, k),
                        right=d.ingressive_to(inst, i, l, k),
                        bottom=d.egressive_to(inst, k, j, l))
                    if not square_commutes(inst, sq):
                        problems.append(
                            f"square ({i},{k},{l},{j}) does not commute")
                    elif not bicartesian_check(inst, sq):
                        problems.append(
                            f"square ({i},{k},{l},{j}) is not bicartesian")
    return problems


def _spine_strings(inst: Instance, n: int):
    """Composable strings of n span classes, deterministic order."""
    objs = inst.objects()
    spans = {(x, y): all_spans(inst, x, y) for x in objs for y in objs}
    strings = [((x,), ()) for x in objs]
    for _ in range(n):
        nxt = []
        for verts, ss in strings:
            for y in objs:
                for s in spans[(verts[-1], y)]:
                    nxt.append((verts + (y,), ss + (s,)))
        strings = nxt
    return strings


def _corner_classes(inst, ne_obj, sw_obj, se_obj, right: Mor, bottom: Mor,
                    epis_cache, monos_cache, autos_cache):
    """All fillers X of the elementary square

            X --e-->  ne_obj
            |m          |right
            v           v
         sw_obj -bottom-> se_obj

    up to an iso of X over both legs.  Because the mono leg cancels
    isos, distinct (e, m) pairs here are already distinct classes except
    for automorphisms of X itself, which are searched directly.
    """
    target = inst.order(ne_obj) * inst.order(sw_obj)
    found = []
    for v in inst.objects():
        if inst.order(v) * inst.order(se_obj) != target:
            continue
        v_els = inst.elements(v)
        monos = [(m, inst.compose(bottom, m))
                 for m in monos_cache[(v, sw_obj)]]
        raw = []
        for e in epis_cache[(v, ne_obj)]:
            right_e = inst.compose(right, e)
            for m, bottom_m in monos:
                if right_e != bottom_m:
                    continue
                joint = {(inst.apply(e, u), inst.apply(m, u))
                         for u in v_els}
                if len(joint) != len(v_els):
                    continue
                raw.append((e, m))
        seen = set()
        for e, m in raw:
            if (e.rows, m.rows) in seen:
                continue
            found.append((v, e, m))
            for phi in autos_cache[v]:
                e2 = inst.compose(e, phi)
                m2 = inst.compose(m, phi)
                seen.add((e2.rows, m2.rows))
    return found


def enumerate_ambigressive(inst: Instance, n: int) -> list[AmbigressiveDiagram]:
    """All ambigressive diagrams of size n up to diagram isomorphism
    fixing the diagonal objects pointwise."""
    if n < 0:
        raise ValueError("diagram size must be nonnegative")
    if n > 3:
        raise GuardError("ambigressive enumeration is bounded at n = 3")
    if n == 0:
        return [AmbigressiveDiagram(0, {(0, 0): x}, {}, {})
                for x in inst.objects()]

    objs = inst.objects()
    epis_cache = {(v, y): inst.epis(v, y) for v in objs for y in objs}
    monos_cache = {(v, y): inst.monos(v, y) for v in objs for y in objs}
    autos_cache = {v: inst.isos(v, v) for v in objs}

    out = []
    for verts, spine in _spine_strings(inst, n):
        base = AmbigressiveDiagram(
            n,
            {(i, i): verts[i] for i in range(n + 1)},
            {},
            {})
        for t, s in enumerate(spine):
            u, e, m = span_legs(inst, s)
            base.objects[(t, t + 1)] = u
            base.epis[(t, t + 1)] = e
            base.monos[(t, t + 1)] = m
        # fill levels outward; each cell's fillers are independent classes
        # because the mono legs make relabeling isos unique
        partials = [base]
        for dist in range(2, n + 1):
            for i in range(0, n - dist + 1):
                j = i + dist
                grown = []
                for d in partials:
                    fillers = _corner_classes(
                        inst,
                        d.objects[(i, j - 1)], d.objects[(i + 1, j)],
                        d.objects[(i + 1, j - 1)],
                        d.monos[(i, j - 1)], d.epis[(i + 1, j)],
                        epis_cache, monos_cache, autos_cache)
                    for v, e, m in fillers:
                        d2 = AmbigressiveDiagram(
                            n, dict(d.objects), dict(d.epis), dict(d.monos))
                        d2.objects[(i, j)] = v
                        d2.epis[(i, j)] = e
                        d2.monos[(i, j)] = m
                        grown.append(d2)
                partials = grown
        out.extend(partials)
    return out


@dataclass(frozen=True)
class SegalReport:
    n: int
    diagram_classes: int
    composable_strings: int

    @property
    def passed(self) -> bool:
        return self.diagram_classes == self.composable_strings


def segal_spine_check(inst: Instance, n: int) -> SegalReport:
    """Compares ambigressive diagram classes with composable span-class
    strings of the same length (the component-level Segal condition)."""
    diagrams = enumerate_ambigressive(inst, n)
    strings = len(_spine_strings(inst, n))
    return SegalReport(n, len(diagrams), strings)


# -- the leg-compatible iso groupoid -----------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    objects: int
    components: int
    passed: bool
    failures: tuple[str, ...]


def groupoid_rigidity(inst: Instance, x, y) -> RigidityReport:
    """Builds the groupoid of raw spans x <<- u >-> y with morphisms the
    isos commuting with both legs, then checks it is rigid: between any
    two objects of a connected component there is exactly one morphism.

    Parallel morphisms must agree because the mono legs cancel isos;
    this is verified by counting, not assumed.
    """
    objects = []
    for u in inst.objects():
        for e in inst.epis(u, x):
            for m in inst.monos(u, y):
                objects.append((u, e, m))

    isos = {(u, v): inst.isos(u, v)
            for (u, v) in {(a[0], b[0]) for a in objects for b in objects}}

    def morphisms(a, b):
        (u, e, m), (u2, e2, m2) = a, b
        return [phi for phi in isos[(u, u2)]
                if inst.compose(e2, phi) == e and inst.compose(m2, phi) == m]

    parent = list(range(len(objects)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    counts = {}
    failures = []
    for ia, a in enumerate(objects):
        for ib, b in enumerate(objects):
            k = len(morphisms(a, b))
            counts[(ia, ib)] = k
            if k > 1:
                failures.append(
                    f"{k} parallel morphisms from span #{ia} to #{ib}")
            if k and ia != ib:
                ra, rb = find(ia), find(ib)
                if ra != rb:
                    parent[rb] = ra
    comps = {find(i) for i in range(len(objects))}
    for ia in range(len(objects)):
        for ib in range(len(objects)):
            if find(ia) == find(ib) and counts[(ia, ib)] != 1:
                failures.append(
                    f"spans #{ia}, #{ib} share a component but have "
                    f"{counts[(ia, ib)]} morphisms")
    return RigidityReport(len(objects), len(comps),
                          not failures, tuple(failures))
