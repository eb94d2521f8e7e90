"""Embeddings of bounded exact instances and the filtration shadow.

An embedding sends one instance into another exactly (zero, sums, leg
classes, and bicartesian squares all preserved).  Against such an
embedding, every target object gets its torsion filtration with
quotients matched to source objects, and the slice categories of the
induced span functor are probed for contractibility.  The stability of
their homology across filtration stages is the checkable trace of the
filtration argument; whether the bounded slices are actually
contractible is recorded, never presumed.
"""

from collections import Counter

from . import errors
from .exact import (
    Instance,
    Mor,
    all_spans,
    identity_span,
    span_compose,
    span_from_legs,
    span_legs,
)
from .fincat import (FiniteCategory, FunctorData, comma, composites, nerve,
                     require_category, string_count)
from .qcons import q_category
from .simpset import Contractibility, SimplicialSet, contractibility

COMMA_DEPTH_BOUND = 4


class ExactEmbedding:
    """Object and morphism maps between two instances."""

    source: Instance
    target: Instance

    def on_object(self, u):
        raise NotImplementedError

    def on_mor(self, f: Mor) -> Mor:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.source.describe()} -> {self.target.describe()}"


class VectToAbP(ExactEmbedding):
    """Spaces over F_p land as elementary abelian p-groups; matrices
    carry over unchanged because both sides compute mod p."""

    def __init__(self, source, target):
        if source.q != target.p:
            raise ValueError("field characteristic must match the torsion prime")
        if target.p ** source.d > target.bound:
            raise ValueError("image of the largest space exceeds the target bound")
        self.source = source
        self.target = target

    def on_object(self, u):
        return (1,) * u

    def on_mor(self, f: Mor) -> Mor:
        return Mor(self.on_object(f.src), self.on_object(f.dst), f.rows)


def q_functor(psi: ExactEmbedding):
    """The induced functor between span categories.  FunctorData checks
    the functor laws on construction, which is where preservation of
    ambigressive pullbacks actually gets exercised."""
    qs = q_category(psi.source, verify=False)
    qt = q_category(psi.target, verify=False)
    on_objects = {x: psi.on_object(x) for x in qs.category.objects}
    on_morphisms = {}
    for name, span in qs.span_of.items():
        _, e, m = span_legs(psi.source, span)
        image = span_from_legs(psi.target, psi.on_mor(e), psi.on_mor(m))
        on_morphisms[name] = qt.name_of[image]
    return FunctorData(qs.category, qt.category, on_objects, on_morphisms)


# -- torsion filtrations ------------------------------------------------------


class AdmissibleFiltration:
    __slots__ = ("target_object", "stage_objects", "inclusions",
                 "quotient_objects", "witnesses")

    def __init__(self, target_object, stage_objects: tuple,
                 inclusions: tuple, quotient_objects: tuple,
                 witnesses: tuple):
        self.target_object = target_object
        self.stage_objects = stage_objects        # 0 = X_0, ..., X_m = X
        self.inclusions = inclusions              # X_{i-1} >-> X_i
        self.quotient_objects = quotient_objects  # X_i / X_{i-1}
        # source objects U_i with psi U_i = X_i / X_{i-1}
        self.witnesses = witnesses


def admissible_filtration(psi: ExactEmbedding, x) -> AdmissibleFiltration:
    """Filtration of x by p-power torsion, with each quotient certified
    as the image of a source object.

    X_i is the kernel of multiplication by p^i, so X_i / X_{i-1} is one
    Z/p for each cyclic factor of x of order at least p^i: elementary by
    construction, and counted from x's moduli.  Failure to realize a
    quotient in the source (dimension too big) is exactly the evidence
    that the embedding misses x.
    """
    t = psi.target
    if x not in t.objects():
        raise ValueError(f"{x!r} is not an object of the target instance")
    ident = t.identity(x)
    obj, lower = t.kernel(ident)   # X_0 = 0, and X_{i-1} >-> x
    stage_objects, inclusions, quotients, witnesses = [obj], [], [], []
    q = 1
    while t.order(lower.src) != t.order(x):
        q *= t.p
        scaled = tuple(tuple(q * a for a in row) for row in ident.rows)
        obj, upper = t.kernel(Mor(x, x, scaled))
        stage_objects.append(obj)
        inclusions.append(next(u for u in t.hom(lower.src, obj)
                               if t.compose(upper, u) == lower))
        q_obj = t.object_of_structure((1,) * sum(m >= q for m in t.moduli_of(x)))
        u = next((u for u in psi.source.objects()
                  if psi.on_object(u) == q_obj), None)
        if u is None:
            raise ValueError(
                f"no filtration within bounds: stage {len(inclusions)} quotient "
                f"{t.label(q_obj)} of {t.label(x)} has no source witness")
        quotients.append(q_obj)
        witnesses.append(u)
        lower = upper

    return AdmissibleFiltration(x, tuple(stage_objects), tuple(inclusions),
                                tuple(quotients), tuple(witnesses))


# -- slice categories of the induced span functor -----------------------------


def comma_over(fun: FunctorData, x, depth: int) -> SimplicialSet:
    """Nerve of the slice over x of `fun`, the span functor that
    `q_functor` induces, truncated at `depth`.  Build `fun` once and
    pass it for every x: it holds both span categories."""
    errors.require("comma nerve", depth, "levels", COMMA_DEPTH_BOUND)
    return nerve(comma(fun, x), depth)


class ProbeReport:
    __slots__ = ("probe", "certificate", "homology")

    def __init__(self, probe: str, certificate: Contractibility,
                 homology: tuple):
        self.probe = probe
        self.certificate = certificate
        self.homology = homology


class StageComparison:
    __slots__ = ("probe", "lower", "upper", "equal", "lower_homology",
                 "upper_homology")

    def __init__(self, probe: str, lower: str, upper: str, equal: bool,
                 lower_homology: tuple, upper_homology: tuple):
        self.probe = probe
        self.lower = lower
        self.upper = upper
        self.equal = equal
        self.lower_homology = lower_homology
        self.upper_homology = upper_homology


class DevissageCertificate:
    __slots__ = ("embedding", "depth", "probes", "stages")

    def __init__(self, embedding: str, depth: int, probes: tuple,
                 stages: tuple):
        self.embedding = embedding
        self.depth = depth
        self.probes = probes        # ProbeReport
        self.stages = stages        # StageComparison

    @property
    def stages_consistent(self) -> bool:
        return all(s.equal for s in self.stages)

    @property
    def all_contractible(self) -> bool:
        return all(p.certificate.certified() for p in self.probes)


def devissage_certificate(psi: ExactEmbedding, probe_objects,
                          depth: int) -> DevissageCertificate:
    """Per-probe contractibility certificates for the slices, plus the
    filtration-stability check: across every stage of every probe's
    filtration, the slice homology reports must agree."""
    errors.require("comma nerve", depth, "levels", COMMA_DEPTH_BOUND)
    fun = q_functor(psi)
    t = psi.target
    reports = {}

    def homology_of(obj):
        if obj not in reports:
            ss = comma_over(fun, obj, depth)
            reports[obj] = (ss, tuple(map(tuple, ss.homology(depth - 1))))
        return reports[obj]

    probe_reports = []
    stage_comparisons = []
    for x in probe_objects:
        ss, hom = homology_of(x)
        probe_reports.append(ProbeReport(
            t.label(x), contractibility(ss, depth - 1, homology=hom), hom))
        filt = admissible_filtration(psi, x)
        for lower, upper in zip(filt.stage_objects, filt.stage_objects[1:]):
            _, h_lower = homology_of(lower)
            _, h_upper = homology_of(upper)
            stage_comparisons.append(StageComparison(
                t.label(x), t.label(lower), t.label(upper),
                h_lower == h_upper, h_lower, h_upper))
    return DevissageCertificate(psi.describe(), depth,
                                tuple(probe_reports),
                                tuple(stage_comparisons))


# -- the relative span construction -------------------------------------------


def relative_q_objects(psi: ExactEmbedding) -> FiniteCategory:
    """Category of pairs (U, g: X -> psi U) with X a target object.

    A morphism (V, h: Y -> psi V) -> (U, g: X -> psi U) is a bridge
    object W in the source with an epi W ->> V and a mono W >-> U,
    together with maps alpha: Y -> X and beta: Y -> psi W such that
    the (alpha, beta, psi W -> psi U, g) square is a pullback and h
    factors as psi(W ->> V) after beta.  Classes are taken modulo
    automorphisms of W and named by the least such datum.  As psi W ->
    psi U is mono, beta is fixed by the legs and alpha, so a class is
    its span class V <<- W >-> U and alpha, and a composite is the class
    of the composite span and alpha_2 alpha_1: the ambigressive pullback
    of the two middle legs, which stays inside the instance bounds, so
    composition is total.
    """
    s, t = psi.source, psi.target
    objects = [(u, x, g) for u in s.objects() for x in t.objects()
               for g in t.hom(x, psi.on_object(u))]
    errors.require("relative construction", len(objects), "objects", 64)

    inverses = {}      # w -> [(sigma, sigma^-1) for sigma in Aut(w)]
    lifts = {}         # (y, psi w_u) -> {psi w_u after b: [b: y -> psi w]}

    def class_key(w, w_u, w_v, alpha, beta):
        if w not in inverses:
            autos = s.isos(w, w)
            inverses[w] = [(sigma, tau) for sigma in autos for tau in autos
                           if s.compose(sigma, tau) == s.identity(w)]
        return min((w, s.compose(w_u, sigma).rows, s.compose(w_v, sigma).rows,
                    alpha.rows, t.compose(psi.on_mor(inv), beta).rows)
                   for sigma, inv in inverses[w])

    morph = {}
    datum_of = {}      # name -> (span class, alpha)
    name_of = {}       # (a, b, span class, alpha) -> name
    for a in objects:
        v, y, h = a
        y_order = t.order(y)
        y_els = t.elements(y)
        for b in objects:
            u, x, g = b
            alphas = [(alpha, t.compose(g, alpha)) for alpha in t.hom(y, x)]
            for span in all_spans(s, v, u):
                w, w_v, w_u = span_legs(s, span)
                pw_u = psi.on_mor(w_u)
                # honest fibre count of the cospan (g, psi w_u); the
                # comparison below is a bijection onto the pullback
                # exactly when it is injective and y has this size
                fibre = Counter(t.apply(pw_u, e) for e in t.elements(pw_u.src))
                if sum(fibre[t.apply(g, xe)] for xe in t.elements(x)) \
                        != y_order:
                    continue
                lift = lifts.get((y, pw_u))
                if lift is None:
                    lift = lifts[y, pw_u] = {}
                    for beta in t.hom(y, pw_u.src):
                        lift.setdefault(t.compose(pw_u, beta), []).append(beta)
                pw_v = psi.on_mor(w_v)
                for alpha, g_alpha in alphas:
                    for beta in lift.get(g_alpha, ()):
                        if t.compose(pw_v, beta) != h:
                            continue
                        joint = {(t.apply(alpha, e), t.apply(beta, e))
                                 for e in y_els}
                        if len(joint) != y_order:
                            continue
                        name = (a, b, class_key(w, w_u, w_v, alpha, beta))
                        morph[name] = (a, b)
                        datum_of[name] = (span, alpha)
                        name_of[a, b, span, alpha] = name

    def class_of(a, b, span, alpha):
        name = name_of.get((a, b, span, alpha))
        if name is None:
            raise ValueError(f"{psi.describe()} is not exact: no morphism "
                             f"{a!r} -> {b!r} has span {span!r} and alpha "
                             f"{alpha!r}")
        return name

    identity = {a: class_of(a, a, identity_span(s, a[0]), t.identity(a[1]))
                for a in objects}
    # the axiom check reads each composable triple once and keeps none
    errors.require("relative span category", string_count(objects, morph, 3),
                   "composable triples", errors.READ_LIMIT)

    def compose(m2, m1):
        span2, alpha2 = datum_of[m2]
        span1, alpha1 = datum_of[m1]
        return class_of(morph[m1][0], morph[m2][1],
                        span_compose(s, span2, span1),
                        t.compose(alpha2, alpha1))

    cat = FiniteCategory(objects, morph, identity, composites(morph, compose))
    require_category(cat)
    return cat
