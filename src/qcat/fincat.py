"""Finite categories presented by explicit composition tables.

Everything here is small enough to verify exhaustively: axioms, functor
laws, twisted arrow categories, comma categories, and the nerve.  The
nerve detects on its own when a category has no composable strings of
nonidentity morphisms beyond some length, in which case the simplicial
set it returns is complete; otherwise a truncation depth is required.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

from . import errors
from .ordmaps import DeltaMap
from .simpset import (LevelModel, SimplicialMap, SimplicialSet,
                      edge_path_presentation)


class FiniteCategory:
    def __init__(self, objects, morphisms, identity, compose_table):
        """morphisms: id -> (src, dst); identity: object -> id;
        compose_table: (g, f) -> g after f, for dst(f) = src(g)."""
        self.objects = tuple(objects)
        self.morph = dict(morphisms)
        self.identity = dict(identity)
        self.compose_table = dict(compose_table)
        self._sorted = None
        self._checked = False     # set by require_category once it passes

    def _index(self):
        """Sort the morphisms by repr and group them by source, by target
        and by (source, target), each group in sorted order.  Built on
        first use, so `morph` must not change after a lookup; nor may the
        table once `require_category` has recorded its passing verdict."""
        if self._sorted is None:
            by_src, by_dst, by_ends = {}, {}, {}
            order = sorted(self.morph, key=repr)
            for m in order:
                s, t = self.morph[m]
                by_src.setdefault(s, []).append(m)
                by_dst.setdefault(t, []).append(m)
                by_ends.setdefault((s, t), []).append(m)
            self._from, self._to, self._hom = (
                {k: tuple(v) for k, v in d.items()}
                for d in (by_src, by_dst, by_ends))
            self._sorted = tuple(order)

    def morphisms(self):
        self._index()
        return list(self._sorted)

    def morphisms_from(self, x):
        """Morphisms with source x, in `morphisms()` order."""
        self._index()
        return self._from.get(x, ())

    def morphisms_to(self, x):
        """Morphisms with target x, in `morphisms()` order."""
        self._index()
        return self._to.get(x, ())

    def src(self, m):
        return self.morph[m][0]

    def dst(self, m):
        return self.morph[m][1]

    def is_identity(self, m) -> bool:
        return self.identity.get(self.src(m)) == m and self.src(m) == self.dst(m)

    def hom(self, x, y):
        self._index()
        return list(self._hom.get((x, y), ()))

    def compose(self, g, f):
        """g after f."""
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise KeyError(f"no composite for {g!r} after {f!r}")

    def __repr__(self):
        return (f"<FiniteCategory {len(self.objects)} objects, "
                f"{len(self.morph)} morphisms>")


def check_axioms(c: FiniteCategory) -> list[str]:
    """Exhaustive axiom check; returns violation descriptions, [] if fine."""
    problems = []
    for x in c.objects:
        e = c.identity.get(x)
        if e is None or e not in c.morph:
            problems.append(f"object {x!r} has no identity morphism")
        elif c.morph[e] != (x, x):
            problems.append(f"identity of {x!r} is not an endomorphism of it")
    for m, (s, t) in c.morph.items():
        if s not in c.objects or t not in c.objects:
            problems.append(f"morphism {m!r} has unknown endpoints")
    for g in c.morph:
        for f in c.morph:
            composable = c.dst(f) == c.src(g)
            present = (g, f) in c.compose_table
            if composable and not present:
                problems.append(f"missing composite {g!r} after {f!r}")
            if present and not composable:
                problems.append(f"composite defined for non-composable {g!r}, {f!r}")
            if present:
                gf = c.compose_table[(g, f)]
                if gf not in c.morph:
                    problems.append(f"composite {g!r} after {f!r} is unknown")
                elif composable and c.morph[gf] != (c.src(f), c.dst(g)):
                    problems.append(f"composite {g!r} after {f!r} has wrong endpoints")
    if problems:
        return problems
    for f in c.morph:
        if c.compose((c.identity[c.dst(f)]), f) != f:
            problems.append(f"left unit law fails at {f!r}")
        if c.compose(f, c.identity[c.src(f)]) != f:
            problems.append(f"right unit law fails at {f!r}")
    # Only composable triples are visited, each list of arrows into an
    # object kept in `c.morph` order so the problems come out in the order
    # of a scan over all M^3 triples.  The checks above make every
    # composable pair a key of the table, read here as rows after[g][f].
    arriving = {}
    for f, (_, t) in c.morph.items():
        arriving.setdefault(t, []).append(f)
    after = {g: {f: c.compose_table[g, f] for f in arriving.get(c.src(g), ())}
             for g in c.morph}
    for h in c.morph:
        after_h = after[h]
        for g in arriving.get(c.src(h), ()):
            after_hg, after_g = after[after_h[g]], after[g]
            problems.extend(
                f"associativity fails at ({h!r}, {g!r}, {f!r})"
                for f in arriving.get(c.src(g), ())
                if after_hg[f] != after_h[after_g[f]])
    return problems


def require_category(c: FiniteCategory):
    """Raise ValueError on axiom violations; a pass is recorded on c."""
    if c._checked:
        return
    problems = check_axioms(c)
    if problems:
        raise ValueError("; ".join(problems[:3]))
    c._checked = True


def composites(morph, compose) -> dict:
    """{(g, f): compose(g, f)} over the composable pairs of `morph` (id ->
    (source, target)): each g in `morph` order, then each f into its source
    in `morph` order.  The pairs, level 2 of the nerve, are counted first
    and held to SIZE_LIMIT."""
    errors.require("composition table", string_count((), morph, 2),
                   f"composable pairs of {len(morph)} morphisms",
                   errors.SIZE_LIMIT)
    arriving = {}
    for f, (_, t) in morph.items():
        arriving.setdefault(t, []).append(f)
    return {(g, f): compose(g, f)
            for g, (s, _) in morph.items() for f in arriving.get(s, ())}


def opposite_cat(c: FiniteCategory) -> FiniteCategory:
    return FiniteCategory(
        c.objects,
        {m: (t, s) for m, (s, t) in c.morph.items()},
        c.identity,
        {(g, f): c.compose_table[(f, g)] for (f, g) in c.compose_table},
    )


def product_category(c: FiniteCategory, d: FiniteCategory) -> FiniteCategory:
    objects = [(x, y) for x in c.objects for y in d.objects]
    morph = {(m, n): ((c.src(m), d.src(n)), (c.dst(m), d.dst(n)))
             for m in c.morph for n in d.morph}
    identity = {(x, y): (c.identity[x], d.identity[y]) for x, y in objects}
    table = {}
    for (g1, f1), gf1 in c.compose_table.items():
        for (g2, f2), gf2 in d.compose_table.items():
            table[((g1, g2), (f1, f2))] = (gf1, gf2)
    return FiniteCategory(objects, morph, identity, table)


class FunctorData:
    __slots__ = ("source", "target", "on_objects", "on_morphisms")

    def __init__(self, source: FiniteCategory, target: FiniteCategory,
                 on_objects: dict, on_morphisms: dict):
        self.source = source
        self.target = target
        self.on_objects = on_objects
        self.on_morphisms = on_morphisms
        problems = self.check()
        if problems:
            raise ValueError("; ".join(problems[:3]))

    def check(self) -> list[str]:
        problems = []
        for x in self.source.objects:
            if self.on_objects.get(x) not in self.target.objects:
                problems.append(f"object {x!r} has no image")
        for m in self.source.morph:
            img = self.on_morphisms.get(m)
            if img not in self.target.morph:
                problems.append(f"morphism {m!r} has no image")
                continue
            want = (self.on_objects[self.source.src(m)],
                    self.on_objects[self.source.dst(m)])
            if self.target.morph[img] != want:
                problems.append(f"image of {m!r} has wrong endpoints")
        if problems:
            return problems
        for x in self.source.objects:
            if self.on_morphisms[self.source.identity[x]] != \
                    self.target.identity[self.on_objects[x]]:
                problems.append(f"identity of {x!r} not preserved")
        for (g, f), gf in self.source.compose_table.items():
            lhs = self.on_morphisms[gf]
            rhs = self.target.compose(self.on_morphisms[g], self.on_morphisms[f])
            if lhs != rhs:
                problems.append(f"composition not preserved at ({g!r}, {f!r})")
        return problems


# -- nerve ---------------------------------------------------------------


def nerve_action(c: FiniteCategory, f: DeltaMap):
    """Contravariant action of a monotone map on composable strings.

    Returns the function on tokens at level f.target_arity: an object when
    that is 0, a tuple of morphism ids otherwise (so tuple-valued object
    names stay unambiguous).  The (lo, hi) segment of each output arrow is
    read off f once, here; the function composes token[lo:hi] for each
    segment, or takes the identity at vertex lo when lo == hi.
    """
    n = f.target_arity

    def vertex(token, j):
        if n == 0:
            return token
        return c.src(token[0]) if j == 0 else c.dst(token[j - 1])

    if f.source_arity == 0:
        v = f(0)
        return lambda token: vertex(token, v)
    segments = [(f(k - 1), f(k)) for k in range(1, f.source_arity + 1)]

    def apply(token):
        out = []
        for lo, hi in segments:
            if lo == hi:
                out.append(c.identity[vertex(token, lo)])
            else:
                seg = token[lo]
                for t in range(lo + 1, hi):
                    seg = c.compose(token[t], seg)
                out.append(seg)
        return tuple(out)

    return apply


def _nerve_levels(c: FiniteCategory, n: int):
    return strings(c.objects, {m: c.morph[m] for m in c.morphisms()}, n, "nerve")


def _string_counts(objects, arrows):
    """Yields, for n = 0, 1, 2, ..., the number of composable strings of
    n arrows drawn from `arrows`, given as (source, target) pairs; level 0
    counts the objects.  `ending[x]` counts the strings of the current
    length that end at x, so each level costs one pass over the arrows."""
    yield len(objects)
    ending = Counter(t for _, t in arrows)
    while True:
        yield sum(ending.values())
        nxt = Counter()
        for s, t in arrows:
            nxt[t] += ending[s]
        ending = nxt


def string_count(objects, arrows, n: int) -> int:
    """The number of strings at level n of the nerve of the graph `arrows`
    (id -> (source, target)) on `objects`, which only level 0 reads."""
    return next(islice(_string_counts(objects, arrows.values()), n, None))


def require_strings(stage: str, objects, arrows, top: int) -> int:
    """The number of strings at level `top` >= 0 of the nerve of the graph
    `arrows` (id -> (source, target)); raises GuardError, naming `stage`,
    if a level through `top` is over SIZE_LIMIT."""
    for n, count in zip(range(top + 1),
                        _string_counts(objects, arrows.values())):
        errors.require(stage, count, f"strings at level {n}",
                       errors.SIZE_LIMIT)
    return count


def strings(objects, arrows, n: int, stage: str) -> list:
    """Level n of the nerve of the graph `arrows` (id -> (source, target)):
    the objects when n is 0, else strings of n ids, each id running in
    `arrows` order over the arrows leaving the end of the string so far.
    Levels 0..n are held to `require_strings` before any is built."""
    require_strings(stage, objects, arrows, n)
    if n == 0:
        return list(objects)
    leaving = {}
    for a, (s, _) in arrows.items():
        leaving.setdefault(s, []).append(a)
    out = [(a,) for a in arrows]
    for _ in range(n - 1):
        out = [t + (a,) for t in out
               for a in leaving.get(arrows[t[-1]][1], ())]
    return out


def nerve_model(c: FiniteCategory, depth: int | None = None) -> LevelModel:
    """Level model of the nerve; detects completeness when strings of
    nonidentity morphisms die out, otherwise truncates at `depth`."""
    require_category(c)
    cap = depth if depth is not None else len(c.morph) + 1
    nonid = [ends for m, ends in c.morph.items() if not c.is_identity(m)]
    complete_at = None
    for n, count in zip(range(cap + 1), _string_counts(c.objects, nonid)):
        if n > 0 and count == 0:
            complete_at = n - 1
            break
    if complete_at is not None:
        max_dim, trunc = complete_at, None
    elif depth is not None:
        max_dim, trunc = depth, depth
    else:
        raise ValueError(
            "category has arbitrarily long composable strings; "
            "pass an explicit nerve depth")
    require_strings("nerve", c.objects, c.morph, max_dim)
    return LevelModel(
        levels=lambda n: _nerve_levels(c, n),
        act=lambda f: nerve_action(c, f),
        max_dim=max_dim,
        truncation=trunc,
    )


def nerve(c: FiniteCategory, depth: int | None = None) -> SimplicialSet:
    return nerve_model(c, depth).compile().space


def nerve_map(fun: FunctorData, depth: int | None = None) -> SimplicialMap:
    src_model = nerve_model(fun.source, depth)
    dst_model = nerve_model(fun.target, depth)
    # the image of a long identity-free string can involve identities, so
    # the target model must be compiled at least as deep as the source
    if dst_model.max_dim < src_model.max_dim:
        require_strings("nerve", fun.target.objects, fun.target.morph,
                        src_model.max_dim)
        dst_model = LevelModel(dst_model.levels, dst_model.act,
                               src_model.max_dim, dst_model.truncation)

    def push(token, n):
        if n == 0:
            return fun.on_objects[token]
        return tuple(fun.on_morphisms[m] for m in token)

    return src_model.compile().map_to(dst_model.compile(), push)


def pi1_presentation(c: FiniteCategory):
    """`nerve(c, 2).pi1_presentation()`, read off the table: the edges are
    the nonidentity morphisms m as tokens (m,), the triangles their
    composable pairs (f, g), each in the nerve's `repr` order."""
    require_category(c)
    ids = set(c.identity.values())
    edges = {e: c.morph[e[0]]
             for e in sorted(((m,) for m in c.morph if m not in ids), key=repr)}
    pairs = sorted(((f, g) for g, f in c.compose_table
                    if f not in ids and g not in ids), key=repr)
    return edge_path_presentation(sorted(c.objects, key=repr), edges, [
        ((f,), (g,), (c.compose(g, f),)) for f, g in pairs])


# -- twisted arrows -------------------------------------------------------


def twisted_arrow(c: FiniteCategory) -> FiniteCategory:
    """Objects are morphisms of c; a morphism f -> g is a factorization
    g = b f a, recorded as (a, f, b); the a-leg composes contravariantly."""
    require_category(c)
    objects = tuple(c.morphisms())
    morph = {}
    identity = {}
    for f in objects:
        for a in c.morphisms_to(c.src(f)):
            for b in c.morphisms_from(c.dst(f)):
                g = c.compose(b, c.compose(f, a))
                morph[(a, f, b)] = (f, g)
        identity[f] = (c.identity[c.src(f)], f, c.identity[c.dst(f)])
    table = composites(morph, lambda g, f: (c.compose(f[0], g[0]), f[1],
                                            c.compose(g[2], f[2])))
    return FiniteCategory(objects, morph, identity, table)


def twisted_projection(c: FiniteCategory) -> FunctorData:
    """The functor Tw(c) -> c^op x c remembering source and target."""
    tw = twisted_arrow(c)
    prod = product_category(opposite_cat(c), c)
    on_objects = {f: (c.src(f), c.dst(f)) for f in tw.objects}
    on_morphisms = {(a, f, b): (a, b) for (a, f, b) in tw.morph}
    return FunctorData(tw, prod, on_objects, on_morphisms)


def nerve_twisted_vs_edgewise(c: FiniteCategory, depth: int = 3):
    """Verify the canonical level-wise bijection between strings in the
    twisted arrow category and (2n+1)-strings in c, including its
    compatibility with every elementary face and degeneracy map.

    The n-th twisted level (t_1, ..., t_n) with t_k = (a_k, f_(k-1), b_k)
    flattens to (a_n, ..., a_1, f_0, b_1, ..., b_n).  Returns (True, None)
    or (False, witness).
    """
    from .delta import EDGEWISE
    require_category(c)
    require_strings("nerve", c.objects, c.morph, 2 * depth + 1)
    tw = twisted_arrow(c)

    def flatten(token, n):
        if n == 0:
            return (token,)
        legs_a = [t[0] for t in token]
        legs_b = [t[2] for t in token]
        f0 = token[0][1]
        return tuple(reversed(legs_a)) + (f0,) + tuple(legs_b)

    for n in range(depth + 1):
        tw_tokens = _nerve_levels(tw, n)
        nc_tokens = _nerve_levels(c, 2 * n + 1)
        images = [flatten(t, n) for t in tw_tokens]
        if len(set(images)) != len(images):
            return False, f"flattening not injective at level {n}"
        if sorted(images, key=repr) != sorted(nc_tokens, key=repr):
            return False, (f"level {n}: {len(images)} twisted strings vs "
                           f"{len(nc_tokens)} long strings")
        maps = [DeltaMap.coface(i, n) for i in range(n + 1)] if n >= 1 else []
        maps += [DeltaMap.codegeneracy(j, n) for j in range(n + 1)]
        actions = [(g, nerve_action(tw, g), nerve_action(c, EDGEWISE.apply_map(g)))
                   for g in maps]
        for token in tw_tokens:
            for g, on_tw, on_c in actions:
                lhs = flatten(on_tw(token), g.source_arity)
                rhs = on_c(flatten(token, n))
                if lhs != rhs:
                    return False, (f"level {n}: map {g.values} disagrees "
                                   f"at {token!r}")
    return True, None


# -- comma categories ------------------------------------------------------


def comma(fun: FunctorData, x) -> FiniteCategory:
    """The slice over x: objects (c, h: F c -> x), morphisms the source
    morphisms making the triangle commute."""
    cc, d = fun.source, fun.target
    if x not in d.objects:
        raise ValueError(f"{x!r} is not an object of the target")
    objects = [(c0, h) for c0 in cc.objects
               for h in d.hom(fun.on_objects[c0], x)]
    morph = {}
    identity = {}
    for (c0, h) in objects:
        for (c1, h1) in objects:
            for u in cc.hom(c0, c1):
                if d.compose(h1, fun.on_morphisms[u]) == h:
                    morph[(u, h, h1)] = ((c0, h), (c1, h1))
        identity[(c0, h)] = (cc.identity[c0], h, h)
    table = composites(morph, lambda g, f: (cc.compose(g[0], f[0]), f[1],
                                            g[2]))
    return FiniteCategory(objects, morph, identity, table)


# -- fixture corpus --------------------------------------------------------


def chain_poset(n: int) -> FiniteCategory:
    objects = list(range(n + 1))
    morph = {f"{i}->{j}": (i, j) for i in objects for j in objects if i <= j}
    identity = {i: f"{i}->{i}" for i in objects}
    table = {}
    for i in objects:
        for j in objects:
            for k in objects:
                if i <= j <= k:
                    table[(f"{j}->{k}", f"{i}->{j}")] = f"{i}->{k}"
    return FiniteCategory(objects, morph, identity, table)


def cyclic_group_category(k: int) -> FiniteCategory:
    morph = {f"r{a}": ("*", "*") for a in range(k)}
    table = {(f"r{a}", f"r{b}"): f"r{(a + b) % k}"
             for a in range(k) for b in range(k)}
    return FiniteCategory(("*",), morph, {"*": "r0"}, table)


def parallel_pair() -> FiniteCategory:
    morph = {"ida": ("a", "a"), "idb": ("b", "b"),
             "f": ("a", "b"), "g": ("a", "b")}
    table = {}
    for m, (s, t) in morph.items():
        table[(m, "ida" if s == "a" else "idb")] = m
        table[("ida" if t == "a" else "idb", m)] = m
    # thanks to the identity rows above the table is already total
    return FiniteCategory(("a", "b"), morph, {"a": "ida", "b": "idb"}, table)


def discrete_category(k: int) -> FiniteCategory:
    objects = list(range(k))
    morph = {f"id{i}": (i, i) for i in objects}
    table = {(f"id{i}", f"id{i}"): f"id{i}" for i in objects}
    return FiniteCategory(objects, morph, {i: f"id{i}" for i in objects}, table)


def corpus() -> dict[str, FiniteCategory]:
    """The regression fixtures: every category with at most 12 morphisms
    that the comparison theorems are exercised on."""
    return {
        "poset_0<1": chain_poset(1),
        "poset_0<1<2": chain_poset(2),
        "bz2": cyclic_group_category(2),
        "parallel_pair": parallel_pair(),
        "discrete_3": discrete_category(3),
        "bz3": cyclic_group_category(3),
    }
