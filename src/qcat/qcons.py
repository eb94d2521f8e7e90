"""The span category of a bounded exact instance.

Morphisms X -> Y are isomorphism classes of spans X <<- U >-> Y with an
egressive left leg and an ingressive right leg, composed by pullback.
The class group of the instance falls out as the abelianized fundamental
group of this category (Quillen: pi_1 BQC = K_0 C), whose edge-path
presentation is read off its arrows and composition table.

Ambigressive diagrams (the triangular grids whose elementary squares are
all ambigressive pullbacks) are filled in from spine strings corner by
corner.  A corner's filler is the pullback of its two legs, a span
class (`exact.pullback_legs`), so a corner has at most one filler and a
spine string at most one diagram; the spine comparison against
composable span strings checks that each corner has one.
"""

from . import errors, fincat
from .exact import (
    Instance,
    all_spans,
    identity_span,
    pullback_legs,
    span_compose,
    span_legs,
    verify_triple,
)
from .fincat import FiniteCategory, require_category
from .presentation import GroupPresentation, abelian_label
from .record import Record


# the span tables are derived from the instance, so equality skips them
class QCategory(Record, compare=("instance", "category")):
    __slots__ = ("instance", "category", "span_of", "name_of")

    def __init__(self, instance: Instance, category: FiniteCategory,
                 span_of: dict, name_of: dict):
        self.instance = instance
        self.category = category
        self.span_of = span_of      # morphism name -> Span
        self.name_of = name_of      # Span -> morphism name


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
    table = fincat.composites(morphisms, lambda g, f: name_of[
        span_compose(inst, span_of[g], span_of[f])])
    cat = FiniteCategory(objs, morphisms, identity, table)
    require_category(cat)
    return QCategory(inst, cat, span_of, name_of)


class K0Report:
    __slots__ = ("instance", "depth", "raw_presentation", "presentation",
                 "betti", "torsion")

    def __init__(self, instance: str, depth: int | None,
                 raw_presentation: GroupPresentation,
                 presentation: GroupPresentation, betti: int,
                 torsion: tuple[int, ...]):
        self.instance = instance
        self.depth = depth
        self.raw_presentation = raw_presentation
        self.presentation = presentation
        self.betti = betti
        self.torsion = torsion

    @property
    def label(self) -> str:
        return abelian_label(self.betti, self.torsion)


def k0(inst: Instance, depth: int | None = None) -> K0Report:
    """Class group of the instance: pi_1 of the span category, read off
    its arrows and composition table (`fincat.pi1_presentation`).

    pi_1 needs only the 2-skeleton of the nerve, which the table already
    is, so no nerve is built; `depth` is only echoed, and when given must
    be at least 2.  The category is connected when every object is the
    target of a span from the zero object.
    """
    if depth is not None and depth < 2:
        raise ValueError("k0 needs the nerve through dimension 2")
    cat = q_category(inst).category
    if not all(cat.hom(inst.zero_object(), x) for x in cat.objects):
        raise ValueError("span category is disconnected")
    raw = fincat.pi1_presentation(cat)
    simplified = raw.simplified()
    betti, torsion = simplified.abelianization()
    return K0Report(inst.describe(), depth, raw, simplified,
                    betti, tuple(torsion))


# -- ambigressive diagrams ---------------------------------------------------


class AmbigressiveDiagram:
    """Triangular grid X_ij (0 <= i <= j <= n).

    `epis[(i, j)]` is the egressive step X_ij ->> X_i,j-1 and
    `monos[(i, j)]` the ingressive step X_ij >-> X_i+1,j; longer
    structure maps are composites of these.
    """
    __slots__ = ("n", "objects", "epis", "monos")

    def __init__(self, n: int, objects: dict, epis: dict, monos: dict):
        self.n = n
        self.objects = objects
        self.epis = epis
        self.monos = monos


def _span_graph(inst: Instance) -> dict:
    """The span category's arrows, span -> (source, target): the graph
    whose level-n strings are the spines of the diagrams of size n."""
    objs = inst.objects()
    return {s: (x, y) for x in objs for y in objs
            for s in all_spans(inst, x, y)}


def enumerate_ambigressive(inst: Instance, n: int) -> list[AmbigressiveDiagram]:
    """All ambigressive diagrams of size n up to diagram isomorphism
    fixing the diagonal objects pointwise: one per spine string whose
    corners all have a filler."""
    if n < 0:
        raise ValueError("diagram size must be nonnegative")
    errors.require("ambigressive enumeration", n, "spine spans", 3)
    if n == 0:
        return [AmbigressiveDiagram(0, {(0, 0): x}, {}, {})
                for x in inst.objects()]

    # cells outward: the spine's spans at distance 1, then the corners
    cells = [(i, i + dist) for dist in range(1, n + 1)
             for i in range(n - dist + 1)]
    out = []
    for spine in fincat.strings(inst.objects(), _span_graph(inst), n,
                                "segal spine"):
        verts = (spine[0].src, *(s.dst for s in spine))
        objects = {(i, i): v for i, v in enumerate(verts)}
        epis, monos = {}, {}
        for i, j in cells:
            if j == i + 1:
                filler = span_legs(inst, spine[i])
            else:
                filler = pullback_legs(inst, monos[(i, j - 1)],
                                       epis[(i + 1, j)])
                if filler is None:
                    break
            objects[(i, j)], epis[(i, j)], monos[(i, j)] = filler
        else:
            out.append(AmbigressiveDiagram(n, objects, epis, monos))
    return out


class SegalReport:
    __slots__ = ("n", "diagram_classes", "composable_strings")

    def __init__(self, n: int, diagram_classes: int, composable_strings: int):
        self.n = n
        self.diagram_classes = diagram_classes
        self.composable_strings = composable_strings

    @property
    def passed(self) -> bool:
        return self.diagram_classes == self.composable_strings


def segal_spine_check(inst: Instance, n: int) -> SegalReport:
    """Compares ambigressive diagram classes with composable span-class
    strings of the same length (the component-level Segal condition)."""
    diagrams = enumerate_ambigressive(inst, n)
    strings = fincat.require_strings("segal spine", inst.objects(),
                                     _span_graph(inst), n)
    return SegalReport(n, len(diagrams), strings)


# -- the leg-compatible iso groupoid -----------------------------------------


class RigidityReport:
    __slots__ = ("objects", "components", "passed", "failures")

    def __init__(self, objects: int, components: int, passed: bool,
                 failures: tuple[str, ...]):
        self.objects = objects
        self.components = components
        self.passed = passed
        self.failures = failures


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
