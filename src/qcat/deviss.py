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

from .errors import GuardError
from .exact import (
    Instance,
    Mor,
    ambigressive_pullback,
    span_from_legs,
    span_legs,
)
from .fincat import (FiniteCategory, FunctorData, comma, composites, nerve,
                     require_category)
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


class IdentityEmbedding(ExactEmbedding):
    def __init__(self, inst: Instance):
        self.source = inst
        self.target = inst

    def on_object(self, u):
        return u

    def on_mor(self, f: Mor) -> Mor:
        return f


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

    @property
    def length(self) -> int:
        return len(self.stage_objects) - 1


def admissible_filtration(psi: ExactEmbedding, x) -> AdmissibleFiltration:
    """Filtration of x by p-power torsion, with each quotient certified
    as the image of a source object.

    X_i is the kernel of multiplication by p^i, so the quotients have
    exponent p; failure to realize a quotient in the source (dimension
    too big) is exactly the evidence that the embedding misses x.
    """
    t = psi.target
    if x not in t.objects():
        raise ValueError(f"{x!r} is not an object of the target instance")
    ident = t.identity(x).rows
    stage_objects = []
    stage_incls = []               # into x, used to express the chain maps
    q = 1
    while True:
        scaled = tuple(tuple(q * a for a in row) for row in ident)
        obj, incl = t.kernel(Mor(x, x, scaled))
        stage_objects.append(obj)
        stage_incls.append(incl)
        if t.order(obj) == t.order(x):
            break
        q *= t.p

    inclusions = []
    for i in range(1, len(stage_objects)):
        lower, upper = stage_incls[i - 1], stage_incls[i]
        step = next(u for u in t.hom(lower.src, upper.src)
                    if t.compose(upper, u) == lower)
        inclusions.append(step)

    quotients = []
    witnesses = []
    for i, step in enumerate(inclusions):
        q_obj = t.cokernel(step)[0]
        struct = t._exps_of(q_obj)
        if any(e != 1 for e in struct):
            raise ValueError(
                f"stage {i + 1} quotient of {t.label(x)} is not elementary abelian")
        try:
            u = psi.source.object_of_structure(struct)
        except ValueError:
            u = None
        if u is None or u not in psi.source.objects():
            raise ValueError(
                f"no filtration within bounds: stage {i + 1} quotient "
                f"{t.label(q_obj)} of {t.label(x)} has no source witness")
        if psi.on_object(u) != q_obj:
            raise ValueError(
                f"witness object for stage {i + 1} of {t.label(x)} "
                "does not map onto the quotient")
        quotients.append(q_obj)
        witnesses.append(u)

    return AdmissibleFiltration(x, tuple(stage_objects), tuple(inclusions),
                                tuple(quotients), tuple(witnesses))


# -- slice categories of the induced span functor -----------------------------


def _require_comma_depth(depth: int):
    if depth > COMMA_DEPTH_BOUND:
        raise GuardError(
            f"comma nerve depth is bounded at {COMMA_DEPTH_BOUND}")


def comma_over(fun: FunctorData, x, depth: int) -> SimplicialSet:
    """Nerve of the slice over x of `fun`, the span functor that
    `q_functor` induces, truncated at `depth`.  Build `fun` once and
    pass it for every x: it holds both span categories."""
    _require_comma_depth(depth)
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
    _require_comma_depth(depth)
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


def _auto_inverse(inst: Instance, sigma: Mor) -> Mor:
    ident = inst.identity(sigma.src)
    return next(tau for tau in inst.isos(sigma.src, sigma.src)
                if inst.compose(sigma, tau) == ident)


def _datum_class_key(psi: ExactEmbedding, w, w_u: Mor, w_v: Mor,
                     alpha: Mor, beta: Mor):
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


def relative_q_objects(psi: ExactEmbedding,
                       max_order: int | None = None) -> FiniteCategory:
    """Category of pairs (U, g: X -> psi U) with X a target object.

    A morphism (V, h: Y -> psi V) -> (U, g: X -> psi U) is a bridge
    object W in the source with an epi W ->> V and a mono W >-> U,
    together with maps alpha: Y -> X and beta: Y -> psi W such that
    the (alpha, beta, psi W -> psi U, g) square is a pullback and h
    factors as psi(W ->> V) after beta.  Classes are taken modulo
    automorphisms of W, and composition bridges through the
    ambigressive pullback of the two middle legs; admissibility of the
    legs is what keeps that pullback inside the instance bounds, so
    composition is total.
    """
    s, t = psi.source, psi.target

    def in_bounds(inst, obj):
        return max_order is None or inst.order(obj) <= max_order

    sources = [u for u in s.objects() if in_bounds(s, u)]
    targets = [x for x in t.objects() if in_bounds(t, x)]
    objects = []
    for u in sources:
        for x in targets:
            for g in t.hom(x, psi.on_object(u)):
                objects.append((u, x, g))
    if len(objects) > 64:
        raise GuardError("relative construction bounded at 64 objects")

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
                # honest fibre count of the cospan (g, psi w_u); the
                # comparison below is a bijection onto the pullback
                # exactly when it is injective and y has this size
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
            seen = set()
            for w, w_u, w_v, alpha, beta in raw_morphisms(a, b):
                key = _datum_class_key(psi, w, w_u, w_v, alpha, beta)
                if key in seen:
                    continue
                seen.add(key)
                name = (a, b, key)
                morph[name] = (a, b)
                datum_of[name] = (w, w_u, w_v, alpha, beta)

    identity = {}
    for (u, x, g) in objects:
        ident = (s.identity(u), s.identity(u), t.identity(x), g)
        key = _datum_class_key(psi, u, *ident)
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

    def compose(m2, m1):
        key = _datum_class_key(psi, *compose_data(m2, m1))
        return (morph[m1][0], morph[m2][1], key)

    cat = FiniteCategory(objects, morph, identity, composites(morph, compose))
    require_category(cat)
    return cat
