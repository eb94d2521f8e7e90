"""Finite simplicial sets presented by nondegenerate simplices.

A simplicial set is stored as its nondegenerate simplices plus, for each
one, the ordered list of faces.  Every simplex, degenerate or not, is a
*value*: a pair (word, id) naming σ^* x for a nondegenerate simplex x
and a surjection σ in Δ.  The normal `word` is σ's doubles j, σ(j) =
σ(j + 1), in decreasing order: s_(j_1) ... s_(j_k) x, leftmost applied
last.  Faces and the action of every monotone map are closed forms in
these doubles, so finite presentations support exact computation of
chains, homology and the edge-path group.

`truncation` records how much of the set the presentation knows: None
means the listed simplices are all of them; an integer T means dimensions
above T were never enumerated, so degree-sensitive reports stop below T.
"""

from __future__ import annotations

from itertools import combinations

from .ordmaps import DeltaMap
from .presentation import GroupPresentation
from .record import Record
from .snf import smith_diagonal, torsion_from_diagonal

Word = tuple[int, ...]
Value = tuple[Word, object]


def compose_words(outer: Word, inner: Word) -> Word:
    """The normal word of s_outer s_inner, for normal words outer and
    inner: outer's doubles, and for each letter j of inner the j-th
    position that outer does not double (the last preimage of j)."""
    if not inner:
        return outer
    doubled = set(outer)
    last = [j for j in range(len(outer) + inner[0] + 1) if j not in doubled]
    return tuple(sorted(doubled.union([last[j] for j in inner]), reverse=True))


def op_word(word: Word, n: int) -> Word:
    """The word of an n-dimensional value in the opposite simplicial set:
    reversing [n] sends the double j to n - 1 - j."""
    return tuple(n - 1 - j for j in reversed(word))


class SimplicialSet:
    def __init__(self, dims, faces, truncation=None, check: bool = True):
        self.dims = dict(dims)
        self.faces = {x: tuple(fs) for x, fs in faces.items()}
        self.truncation = truncation
        if check:
            self._validate()

    # -- presentation bookkeeping ------------------------------------

    def _validate(self):
        for x, n in self.dims.items():
            if n < 0:
                raise ValueError(f"negative dimension for {x!r}")
            if self.truncation is not None and n > self.truncation:
                raise ValueError(f"{x!r} lives above the truncation level")
            if n == 0:
                if x in self.faces and self.faces[x]:
                    raise ValueError(f"vertex {x!r} with face records")
                continue
            fs = self.faces.get(x)
            if fs is None or len(fs) != n + 1:
                raise ValueError(f"{x!r} needs {n + 1} faces")
            for v in fs:
                self._check_value(v, n - 1)
        for x in self.faces:
            if x not in self.dims:
                raise ValueError(f"face record for unknown simplex {x!r}")
        # d_i d_j = d_(j-1) d_i for i < j
        for x, n in self.dims.items():
            if n < 2:
                continue
            for j in range(1, n + 1):
                for i in range(j):
                    lhs = self.face(self.face_of(x, j), i)
                    rhs = self.face(self.face_of(x, i), j - 1)
                    if lhs != rhs:
                        raise ValueError(f"simplicial identity fails at {x!r}: "
                                         f"d_{i} d_{j} != d_{j - 1} d_{i}")

    def _check_value(self, value, n):
        word, x = value
        if x not in self.dims:
            raise ValueError(f"value names unknown simplex {x!r}")
        if len(word) + self.dims[x] != n:
            raise ValueError(f"value {value!r} is not {n}-dimensional")
        for a, b in zip(word, word[1:]):
            if a <= b:
                raise ValueError(f"degeneracy word not in normal form: {word}")
        if word and (word[0] > n - 1 or word[-1] < 0):
            raise ValueError(f"degeneracy word out of range: {word}")

    def __eq__(self, other):
        return (isinstance(other, SimplicialSet)
                and self.dims == other.dims
                and self.faces == other.faces
                and self.truncation == other.truncation)

    def __repr__(self):
        counts = {}
        for n in self.dims.values():
            counts[n] = counts.get(n, 0) + 1
        shape = ", ".join(f"{counts[n]}x{n}" for n in sorted(counts))
        trunc = "complete" if self.truncation is None else f"truncated at {self.truncation}"
        return f"<SimplicialSet {shape or 'empty'}; {trunc}>"

    def max_nondeg_dim(self) -> int:
        return max(self.dims.values(), default=-1)

    def nondeg(self, n: int):
        return sorted((x for x, d in self.dims.items() if d == n), key=repr)

    def vertices(self):
        return self.nondeg(0)

    # -- the value algebra -------------------------------------------

    def dim_of(self, value) -> int:
        word, x = value
        return len(word) + self.dims[x]

    def face_of(self, x, i) -> Value:
        """Face record lookup for a nondegenerate simplex id."""
        return self.faces[x][i]

    def face(self, value, i) -> Value:
        """d_i on s_w x: the k doubles of w above i shift down by one, and
        d_i drops the next double if it is i or i - 1.  Otherwise i is the
        one vertex over x's vertex c = i - #{j in w : j < i}, and d_i
        takes x's face c under the shifted doubles."""
        word, x = value
        if not word:
            if self.dims[x] == 0:
                raise ValueError("no faces of a vertex")
            return self.faces[x][i]
        k = 0
        while k < len(word) and word[k] > i:
            k += 1
        head = tuple([j - 1 for j in word[:k]])
        if k < len(word) and word[k] >= i - 1:
            return (head + word[k + 1:], x)
        bw, bx = self.faces[x][i - len(word) + k]
        return (compose_words(head + word[k:], bw), bx)

    def degeneracy(self, value, j) -> Value:
        word, x = value
        return (compose_words((j,), word), x)

    def action(self, f: DeltaMap):
        """The contravariant action of f:[a]->[b] as a function from
        b-values to a-values; it raises ValueError on any other value.

        f^* takes the faces at f's missed vertices, largest first.  Then i
        is a letter of the word when f(i) = f(i + 1), or when i is the last
        preimage of a letter, one of the positions f does not double: the
        `last` table, built once per map for the many values it meets.
        """
        b = f.target_arity
        missed = f.misses()[::-1]
        doubles = set(f.doubles())
        last = [i for i in range(f.source_arity) if i not in doubles]

        def apply(value) -> Value:
            word, x = value
            if len(word) + self.dims[x] != b:
                raise ValueError("value dimension does not match the map")
            for v in missed:
                word, x = self.face((word, x), v)
            if doubles:
                word = tuple(sorted(doubles.union([last[j] for j in word]),
                                    reverse=True))
            return (word, x)

        return apply

    def values(self, n: int):
        """Every n-simplex, degenerate ones included, in a deterministic order."""
        out = []
        for x in sorted(self.dims, key=repr):
            m = self.dims[x]
            if m > n:
                continue
            for word in combinations(range(n - 1, -1, -1), n - m):
                out.append((word, x))
        return out

    # -- constructions ------------------------------------------------

    def opposite(self) -> "SimplicialSet":
        faces = {}
        for x, n in self.dims.items():
            if n == 0:
                continue
            faces[x] = tuple((op_word(w, n - 1), y)
                             for w, y in (self.faces[x][n - i] for i in range(n + 1)))
        return SimplicialSet(dict(self.dims), faces, self.truncation, check=False)

    # -- invariants ----------------------------------------------------

    def boundary_matrix(self, n: int):
        """Rows index nondegenerate n-simplices, columns (n-1)-simplices."""
        rows_ix = self.nondeg(n)
        cols_ix = self.nondeg(n - 1)
        col = {x: k for k, x in enumerate(cols_ix)}
        rows = []
        for x in rows_ix:
            r = [0] * len(cols_ix)
            for i, (word, y) in enumerate(self.faces[x]):
                if not word:
                    r[col[y]] += -1 if i % 2 else 1
            rows.append(r)
        return rows, rows_ix, cols_ix

    def homology_report_limit(self):
        """Largest dimension whose homology the presentation determines.

        None means unbounded: a complete presentation settles every degree
        (all simplices above the top one are degenerate).
        """
        if self.truncation is None:
            return None
        return self.truncation - 1

    def homology(self, through_dim=None):
        """[(betti_n, torsion orders)] for n = 0 .. through_dim."""
        top = self.homology_report_limit()
        if through_dim is None:
            through_dim = max(top if top is not None else self.max_nondeg_dim(), 0)
        if top is not None and through_dim > top:
            raise ValueError(f"presentation only determines homology through {top}")
        cells = [len(self.nondeg(n)) for n in range(through_dim + 1)]
        # diags[n] is the Smith diagonal of d_n; d_0 is zero
        diags = [[]] + [smith_diagonal(self.boundary_matrix(n)[0], cells[n - 1])
                        for n in range(1, through_dim + 2)]
        out = [(c_n - len(diags[n]) - len(diags[n + 1]),
                torsion_from_diagonal(diags[n + 1]))
               for n, c_n in enumerate(cells)]
        self._check_homology(cells, [betti for betti, _ in out])
        return out

    def _check_homology(self, cells, bettis):
        """Independent checks on computed Betti numbers.

        H_0 must count the path components.  On a complete presentation
        with every nondegenerate degree computed, the alternating sums of
        cells and of Betti numbers must agree.  Each boundary's rank enters
        two adjacent Betti numbers with opposite signs, so that sum catches
        only a nonzero rank of the top boundary, which has no rows; the
        H_0 count is what catches a wrong rank of d_1.
        """
        where = f"homology: cells {cells}, betti {bettis}"
        components = len(self.components())
        if bettis[0] != components:
            raise ValueError(f"{where}: H_0 has betti {bettis[0]} but the "
                             f"space has {components} components")
        if self.truncation is None and len(cells) > self.max_nondeg_dim():
            chi = sum((-1) ** n * c for n, c in enumerate(cells))
            alt = sum((-1) ** n * b for n, b in enumerate(bettis))
            if chi != alt:
                raise ValueError(f"{where}: Euler characteristic {chi} but "
                                 f"alternating Betti sum {alt}")

    def euler_characteristic(self) -> int:
        if self.truncation is not None:
            raise ValueError("Euler characteristic needs a complete presentation")
        return sum((-1) ** n * len(self.nondeg(n))
                   for n in range(self.max_nondeg_dim() + 1))

    def components(self):
        """Partition of the vertices by nondegenerate-edge reachability."""
        parent = {v: v for v in self.vertices()}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in self.nondeg(1):
            ra, rb = map(find, self.edge_endpoints(e))
            if ra != rb:
                parent[rb] = ra
        groups = {}
        for v in self.vertices():
            groups.setdefault(find(v), []).append(v)
        return sorted(groups.values(), key=lambda g: repr(g[0]))

    def edge_endpoints(self, e):
        (_, a) = self.face_of(e, 1)
        (_, b) = self.face_of(e, 0)
        return a, b

    def pi1_presentation(self) -> GroupPresentation:
        """`edge_path_presentation` of the nondegenerate edges and
        triangles; a degenerate face names a vertex, so it is no edge.
        Needs the 2-skeleton: a complete presentation or truncation >= 2."""
        if self.truncation is not None and self.truncation < 2:
            raise ValueError("pi_1 needs the presentation through dimension 2")
        return edge_path_presentation(
            self.vertices(),
            {e: self.edge_endpoints(e) for e in self.nondeg(1)},
            [tuple(self.faces[t][i][1] for i in (2, 0, 1))
             for t in self.nondeg(2)])

    def fundamental_group(self) -> GroupPresentation:
        return self.pi1_presentation().simplified()


def edge_path_presentation(vertices, edges, triangles) -> GroupPresentation:
    """Edge-path presentation of pi_1 at the component of vertices[0].

    `edges` maps each edge to its (source, target), and each triangle
    lists its (01, 12, 02) edges.  Generators are that component's edges
    off a breadth-first spanning tree, named g0, g1, ... in `edges` order.
    A triangle gives the relator (01) (12) (02)^(-1) of its generators, so
    a degenerate face (no key of `edges`) adds no letter, and a triangle
    off the component gives an empty relator, which is dropped.
    """
    if not vertices:
        raise ValueError("empty simplicial set has no pi_1")
    adj = {}
    for e, (a, b) in edges.items():
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    root = vertices[0]
    tree_edges = set()
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in sorted(frontier, key=repr):
            for u, e in sorted(adj.get(v, []), key=lambda p: (repr(p[0]), repr(p[1]))):
                if u not in seen:
                    seen.add(u)
                    tree_edges.add(e)
                    nxt.append(u)
        frontier = nxt

    gens = [e for e, (a, _) in edges.items()
            if e not in tree_edges and a in seen]
    gen_names = {e: f"g{k}" for k, e in enumerate(gens)}
    relators = [tuple((gen_names[e], sign)
                      for e, sign in zip(tri, (1, 1, -1)) if e in gen_names)
                for tri in triangles]
    return GroupPresentation.build(tuple(gen_names.values()), relators)


class Contractibility(Record):
    """Outcome of the finite contractibility test.

    status is one of "contractible_up_to" (connected, reduced homology
    zero through `depth`, and the edge-path group simplified away),
    "not_contractible" (a genuine obstruction, named in `reason`), or
    "inconclusive" (the presentation is too shallow, or pi_1 resisted
    simplification without a visible obstruction).
    """

    __slots__ = ("status", "depth", "reason")

    def __init__(self, status: str, depth: int | None, reason: str):
        self.status = status
        self.depth = depth
        self.reason = reason

    def certified(self) -> bool:
        return self.status == "contractible_up_to"


def contractibility(space: SimplicialSet, depth: int,
                    homology=None) -> Contractibility:
    """`homology`, if given, is `space.homology(depth)` computed earlier."""
    if not space.vertices():
        return Contractibility("not_contractible", None, "no vertices")
    if len(space.components()) > 1:
        return Contractibility("not_contractible", None, "disconnected")
    limit = space.homology_report_limit()
    if limit is not None and limit < depth:
        return Contractibility(
            "inconclusive", None,
            f"presentation determines homology only through {limit}, "
            f"needed {depth}")
    if homology is None:
        homology = space.homology(depth)
    elif len(homology) != depth + 1:
        raise ValueError(f"contractibility through {depth} needs homology "
                         f"in {depth + 1} degrees, got {len(homology)}")
    for n, (betti, torsion) in enumerate(homology):
        expected = 1 if n == 0 else 0
        if betti != expected or torsion:
            return Contractibility(
                "not_contractible", None,
                f"H_{n} has betti {betti} and torsion {torsion}")
    if depth >= 1:
        if space.truncation is not None and space.truncation < 2:
            return Contractibility("inconclusive", None,
                                   "pi_1 needs the 2-skeleton")
        pres = space.fundamental_group()
        if pres.generators:
            return Contractibility(
                "inconclusive", None,
                f"pi_1 presentation kept {len(pres.generators)} generators "
                "after simplification")
    return Contractibility("contractible_up_to", depth,
                           f"reduced homology trivial through {depth}")


# -- level-model compiler ----------------------------------------------


class LevelModel:
    """A simplicial set described one level at a time.

    `levels(n)` lists tokens for all n-simplices (degenerate included).
    `act(f)` takes a monotone map f:[a]->[b] and returns the function that
    applies f contravariantly, sending a level-b token to a level-a token.
    Compilation asks for each map once per level and applies the function
    it gets to many tokens there, so `act(f)` should do the work that
    depends only on f before it returns.

    Compilation writes each token as its value s_w x (Eilenberg-Zilber:
    one nondegenerate x and one normal word w), building level n from
    level n-1.  s_j s_w x is already in normal form exactly when w is
    empty or j > w[0], so s_j is applied only to those tokens and each
    degenerate token is reached once; a second hit means the model is not
    a simplicial set.  Tokens no degeneracy reaches are the simplex ids,
    and face records are the values of their faces.
    """

    __slots__ = ("levels", "act", "max_dim", "truncation")

    def __init__(self, levels, act, max_dim: int,
                 truncation: int | None = None):
        self.levels = levels
        self.act = act
        self.max_dim = max_dim
        self.truncation = truncation

    def compile(self) -> "CompiledLevelModel":
        tokens = {n: list(self.levels(n)) for n in range(self.max_dim + 1)}
        for n, toks in tokens.items():
            if len(set(toks)) != len(toks):
                raise ValueError(f"duplicate tokens at level {n}")

        values: dict[int, dict[object, Value]] = {}
        for n, toks in tokens.items():
            reached: dict[object, Value] = {}
            if n:
                present = set(toks)
                for j in range(n):
                    sj = self.act(DeltaMap.codegeneracy(j, n - 1))
                    for t, (word, x) in values[n - 1].items():
                        if word and j <= word[0]:
                            continue
                        image = sj(t)
                        if image not in present:
                            raise ValueError(f"degeneracy left the level model at {t!r}")
                        if image in reached:
                            raise ValueError(f"two degeneracies reach {image!r}")
                        reached[image] = ((j,) + word, x)
            values[n] = {t: reached.get(t) or ((), t) for t in toks}

        dims = {}
        for n, level in values.items():
            for t, (word, _) in level.items():
                if not word:
                    if t in dims:
                        raise ValueError(f"duplicate simplex id {t!r}")
                    dims[t] = n
        faces = {}
        for n in range(1, self.max_dim + 1):
            cofaces = [self.act(DeltaMap.coface(i, n)) for i in range(n + 1)]
            for t, (word, _) in values[n].items():
                if not word:
                    faces[t] = tuple(values[n - 1][d(t)] for d in cofaces)
        sset = SimplicialSet(dims, faces, self.truncation)
        return CompiledLevelModel(sset, tokens, values)


class CompiledLevelModel:
    """The compiled space, with `values[n][t]`, the value (word, id) of
    the token t at level n.  `tokens` keeps each level's token list, which
    the per-layer tracer counts.  `map_to(other, push)` is the simplicial
    map into `other` sending the simplex with token t at level n to the
    value of token push(t, n)."""
    __slots__ = ("space", "tokens", "values")

    def __init__(self, space: SimplicialSet, tokens: dict, values: dict):
        self.space = space
        self.tokens = tokens
        self.values = values

    def map_to(self, other: "CompiledLevelModel", push) -> "SimplicialMap":
        return SimplicialMap(self.space, other.space, {
            t: other.values[n][push(t, n)]
            for t, n in self.space.dims.items()})


# -- stock spaces --------------------------------------------------------


def standard_simplex(m: int) -> SimplicialSet:
    dims = {}
    faces = {}
    for size in range(1, m + 2):
        for verts in combinations(range(m + 1), size):
            dims[verts] = size - 1
            if size > 1:
                faces[verts] = tuple(((), verts[:i] + verts[i + 1:])
                                     for i in range(size))
    return SimplicialSet(dims, faces, None)


def simplicial_set_from_triangulation(triangles) -> SimplicialSet:
    """Build a 2-complex from vertex triples; edges and vertices inferred.

    Vertices may be any sortable labels; each triple must be strictly
    increasing so faces are again increasing tuples.
    """
    dims = {}
    faces = {}
    for tri in triangles:
        t = tuple(tri)
        if len(t) != 3 or not (t[0] < t[1] < t[2]):
            raise ValueError(f"triangle {tri!r} is not strictly increasing")
        dims[t] = 2
        for i in range(3):
            e = t[:i] + t[i + 1:]
            dims[e] = 1
            for v in e:
                dims[(v,)] = 0
        faces[t] = tuple(((), t[:i] + t[i + 1:]) for i in range(3))
    for x, n in dims.items():
        if n == 1:
            faces[x] = (((), (x[1],)), ((), (x[0],)))
    return SimplicialSet(dims, faces, None)


def product(x: SimplicialSet, y: SimplicialSet) -> SimplicialSet:
    """Degreewise product, compiled from the level model of value pairs."""
    return product_model(x, y).compile().space


def product_model(x: SimplicialSet, y: SimplicialSet) -> LevelModel:
    """Level model of the degreewise product; its tokens are value pairs.

    A pair of values is nondegenerate exactly when the two degeneracy
    words share no letter, so a complete product needs levels only up to
    the sum of the factors' top dimensions.
    """
    caps = [t for t in (x.truncation, y.truncation) if t is not None]
    if caps:
        max_dim = min(caps)
        trunc = max_dim
    else:
        max_dim = x.max_nondeg_dim() + y.max_nondeg_dim()
        trunc = None

    def act(f):
        on_x, on_y = x.action(f), y.action(f)
        return lambda t: (on_x(t[0]), on_y(t[1]))

    return LevelModel(
        levels=lambda n: [(a, b) for a in x.values(n) for b in y.values(n)],
        act=act,
        max_dim=max(max_dim, 0),
        truncation=trunc,
    )


# -- maps ---------------------------------------------------------------


class SimplicialMap:
    """Assignment of a target value to each nondegenerate source simplex."""

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 assignment: dict, check: bool = True):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        if check:
            self._validate()

    def _validate(self):
        for x, n in self.source.dims.items():
            if x not in self.assignment:
                raise ValueError(f"no image for {x!r}")
            img = self.assignment[x]
            if self.target.dim_of(img) != n:
                raise ValueError(f"image of {x!r} has the wrong dimension")
            for i in range(n + 1) if n else ():
                lhs = self.on_value(self.source.face_of(x, i))
                rhs = self.target.face(self.assignment[x], i)
                if lhs != rhs:
                    raise ValueError(f"not simplicial at {x!r}, face {i}")

    def on_value(self, value) -> Value:
        word, x = value
        iw, iy = self.assignment[x]
        return (compose_words(word, iw), iy)

    @staticmethod
    def identity(x: SimplicialSet) -> "SimplicialMap":
        return SimplicialMap(x, x, {s: ((), s) for s in x.dims}, check=False)


# -- unique-horn-filling check -------------------------------------------


def left_fibration_check(f: SimplicialMap, maxdim: int = 3):
    """Check unique lifting against inner-and-left horns through maxdim.

    For every compatible horn family (x_i)_{i != k} in the source with
    0 <= k < n <= maxdim, and every n-value z downstairs filling the image
    family, there must be exactly one y upstairs with faces x_i and image z.
    Returns (True, None) or (False, description of the first failure).
    """
    X, Y = f.source, f.target
    for n in range(1, maxdim + 1):
        xvals = X.values(n)
        yvals = Y.values(n)
        xlow = X.values(n - 1)
        prof_up = {y: tuple(X.face(y, i) for i in range(n + 1)) for y in xvals}
        prof_down = {z: tuple(Y.face(z, i) for i in range(n + 1)) for z in yvals}
        image_low = {v: f.on_value(v) for v in xlow}
        image_up = {y: f.on_value(y) for y in xvals}
        low_faces = None
        if n >= 2:
            low_faces = {v: tuple(X.face(v, i) for i in range(n)) for v in xlow}

        for k in range(n):
            slots = [i for i in range(n + 1) if i != k]
            up_index: dict = {}
            for y, prof in prof_up.items():
                up_index.setdefault(tuple(prof[i] for i in slots), []).append(y)
            down_index: dict = {}
            for z, prof in prof_down.items():
                down_index.setdefault(tuple(prof[i] for i in slots), []).append(z)

            for family in _horn_families(xlow, low_faces, slots):
                key_up = tuple(family[i] for i in slots)
                key_down = tuple(image_low[family[i]] for i in slots)
                for z in down_index.get(key_down, ()):
                    ups = [y for y in up_index.get(key_up, ())
                           if image_up[y] == z]
                    if len(ups) != 1:
                        where = f"horn (n={n}, k={k}) at {sorted(family.items())}"
                        return False, f"{len(ups)} lifts over {z!r} for {where}"
    return True, None


def _horn_families(candidates, faces, slots):
    """Backtracking enumeration of compatible (n-1)-value families.

    Slot j and slot i with j < i must satisfy d_j(x_i) = d_(i-1)(x_j), the
    relation the faces of an actual n-simplex would obey.  `faces` maps a
    candidate to its face tuple; None means dimension 1, where the single
    slot is unconstrained.
    """
    if faces is None:
        for v in candidates:
            yield {slots[0]: v}
        return

    position = {v: k for k, v in enumerate(candidates)}
    by_face: dict = {}
    for v in candidates:
        for p, w in enumerate(faces[v]):
            by_face.setdefault((p, w), set()).add(v)

    family: dict = {}

    def extend(idx):
        if idx == len(slots):
            yield dict(family)
            return
        i = slots[idx]
        # every already-placed slot pins one face of the newcomer, so the
        # viable candidates are an intersection of by_face buckets, taken
        # in candidate order
        empty: set = set()
        needs = []
        for j, prev in family.items():
            if j < i:
                needs.append(by_face.get((j, faces[prev][i - 1]), empty))
            else:
                needs.append(by_face.get((j - 1, faces[prev][i]), empty))
        pool = candidates if not needs else sorted(
            set.intersection(*needs), key=position.__getitem__)
        for v in pool:
            family[i] = v
            yield from extend(idx + 1)
            del family[i]

    yield from extend(0)
