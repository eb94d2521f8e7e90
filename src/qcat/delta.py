"""Join words of ordinal endofunctors and the subdivisions they induce.

A join word is a nonempty sequence over {id, op}.  On objects a word of
length k sends [n] to [k(n+1)-1]; on maps it acts blockwise, each op
token contributing the order-reversed copy.  Restricting a simplicial set
along such a functor reindexes its levels, and the word (op, id) gives
the edgewise subdivision, whose vertices are the edges of the input.

A pullback is compiled from its cells alone.  A level-n token is a value
(w, y) of the input in dimension k(n+1)-1, and it is s_j of a level-(n-1)
token exactly when w holds all k doubles
D_j = {b(n+1)+j : id block b} ∪ {b(n+1)+n-1-j : op block b}.  A cell
must keep one position of each of the n disjoint D_j out of w, so y has
dimension at least n, and a pullback of Δ^m has no cell above level m.

The Const(k) functor, collapsing every map to the identity of [k], is
kept alongside as a decidable negative control for the subdivision test.
"""

from __future__ import annotations

from itertools import combinations

from . import parallel
from .ordmaps import DeltaMap
from .record import Record
from .simpset import (
    Contractibility,
    LevelModel,
    SimplicialMap,
    SimplicialSet,
    contractibility,
    drop_doubles,
    op_word,
    product_model,
    standard_simplex,
)

VALID_TOKENS = ("id", "op")


class JoinWord(Record):
    __slots__ = ("tokens",)

    def __init__(self, tokens: tuple[str, ...]):
        if not tokens:
            raise ValueError("join words are nonempty")
        for t in tokens:
            if t not in VALID_TOKENS:
                raise ValueError(f"unknown token {t!r}")
        self.tokens = tokens

    def apply_object(self, n: int) -> int:
        return len(self.tokens) * (n + 1) - 1

    def apply_map(self, f: DeltaMap) -> DeltaMap:
        a, b = f.source_arity, f.target_arity
        values = []
        for t, token in enumerate(self.tokens):
            off_src = t * (a + 1)
            off_dst = t * (b + 1)
            if token == "id":
                values.extend(off_dst + f(i) for i in range(a + 1))
            else:
                values.extend(off_dst + (b - f(a - i)) for i in range(a + 1))
        return DeltaMap(self.apply_object(a), self.apply_object(b), tuple(values))

    def describe(self) -> str:
        return ",".join(self.tokens)

    def doubles(self, n: int) -> list[frozenset]:
        """D_j for j < n: the doubles of the word's image of the
        codegeneracy [n] -> [n-1] repeating j, one in each block."""
        return [frozenset(b * (n + 1) + (j if token == "id" else n - 1 - j)
                          for b, token in enumerate(self.tokens))
                for j in range(n)]

    def cells(self, x: SimplicialSet, n: int) -> list:
        """The level-n tokens whose word holds no D_j, so their normal
        word is empty, in `x.values` order; only a y of dimension at
        least n can carry one."""
        top = self.apply_object(n)
        doubles = self.doubles(n)
        return [(w, y) for y in sorted(x.dims, key=repr)
                if n <= x.dims[y] <= top
                for w in combinations(range(top - 1, -1, -1), top - x.dims[y])
                if not any(map(frozenset(w).issuperset, doubles))]

    def normal(self, n: int):
        """The value of a level-n token (w, y): s_j applies to it exactly
        when w holds D_j, since a value of x is in the image of a
        surjection exactly when its word holds the surjection's doubles.
        The word is those j, the cell (w, y) with their doubles dropped."""
        doubles = self.doubles(n)

        def apply(value):
            held = frozenset(value[0])
            if not any(map(held.issuperset, doubles)):
                return (), value
            word = tuple(j for j in range(n - 1, -1, -1) if doubles[j] <= held)
            dropped = frozenset().union(*(doubles[j] for j in word))
            return word, (drop_doubles(value[0], dropped), value[1])

        return apply


class ConstWord(Record):
    """The functor collapsing everything onto [k]."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("Const needs k >= 0")
        self.k = k

    def apply_object(self, n: int) -> int:
        return self.k

    def apply_map(self, f: DeltaMap) -> DeltaMap:
        return DeltaMap.identity(self.k)

    def describe(self) -> str:
        return f"const:{self.k}"

    def cells(self, x: SimplicialSet, n: int) -> list:
        """Every level is x's k-simplices and every degeneracy is the
        identity, so each token is nondegenerate at level 0 only."""
        return x.values(self.k) if n == 0 else []

    def normal(self, n: int):
        """A level-n token t is s_(n-1) ... s_0 of t at level 0."""
        word = tuple(range(n - 1, -1, -1))
        return lambda t: (word, t)


def parse_word(text: str):
    """CLI spelling: 'op,id' or 'const:2'."""
    text = text.strip()
    if text.startswith("const:"):
        try:
            return ConstWord(int(text[len("const:"):]))
        except ValueError:
            raise ValueError(f"bad constant word {text!r}")
    return JoinWord(tuple(tok.strip() for tok in text.split(",") if tok.strip()))


EDGEWISE = JoinWord(("op", "id"))


def _require_depth(word, x: SimplicialSet, depth: int):
    needed = word.apply_object(depth)
    if x.truncation is not None and x.truncation < needed:
        raise ValueError(
            f"input knows dimensions only through {x.truncation}, "
            f"but level {depth} of the pullback needs dimension {needed}")


def pullback_model(word, x: SimplicialSet, depth: int) -> LevelModel:
    """Level n is x's values in dimension word.apply_object(n); the word
    lists the cells and writes their normal forms."""
    _require_depth(word, x, depth)
    return LevelModel(
        cells=lambda n: word.cells(x, n),
        normal=word.normal,
        act=lambda f: x.action(word.apply_map(f)),
        max_dim=depth,
        truncation=depth,
    )


def pullback(word, x: SimplicialSet, depth: int) -> SimplicialSet:
    """Reindex x along the word; output is truncated at `depth`."""
    return pullback_model(word, x, depth).compile().space


def edgewise(x: SimplicialSet, depth: int) -> SimplicialSet:
    return pullback(EDGEWISE, x, depth)


def edgewise_structure_map(x: SimplicialSet, depth: int) -> SimplicialMap:
    """The map from the edgewise subdivision into opposite(x) times x.

    Level n of the subdivision is X_(2n+1); the first component restricts
    along [n] -> [2n+1], i -> i (the op block, so the value is rewritten
    in the opposite's normal form) and the second along i -> n+1+i.
    """
    src = pullback_model(EDGEWISE, x, depth).compile()
    prod = product_model(x.opposite(), x).compile()

    def push(token, n):  # token is a value of x in dimension 2n+1
        into_op = DeltaMap(n, 2 * n + 1, tuple(range(n + 1)))
        into_id = DeltaMap(n, 2 * n + 1, tuple(n + 1 + i for i in range(n + 1)))
        first = x.action(into_op)(token)
        return ((op_word(first[0], n), first[1]), x.action(into_id)(token))

    return src.map_to(prod, push)


class SubdivisionVerdict:
    __slots__ = ("status", "m_max", "depth", "per_m", "witness_m")

    def __init__(self, status: str, m_max: int, depth: int,
                 per_m: tuple[tuple[int, Contractibility], ...],
                 witness_m: int | None = None):
        # "subdivision" | "not_subdivision" | "inconclusive"
        self.status = status
        self.m_max = m_max
        self.depth = depth
        self.per_m = per_m
        self.witness_m = witness_m

    def certificate(self, m: int) -> Contractibility:
        return dict(self.per_m)[m]


def is_combinatorial_subdivision(word, m_max: int, depth: int | None = None,
                                 ) -> SubdivisionVerdict:
    """Test whether the word carries every standard simplex to a
    contractible-looking complex.

    Each m <= m_max is checked independently: restrict the standard
    m-simplex along the word, truncate at `depth`, and certify
    contractibility through depth - 1.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if depth is None:
        depth = m_max + 1
    if depth < 2:
        raise ValueError("depth below 2 cannot support the certificates")

    def check(m: int) -> Contractibility:
        return contractibility(pullback(word, standard_simplex(m), depth),
                               depth - 1)

    ms = list(range(1, m_max + 1))
    certs = parallel.parallel_map(check, ms)
    per_m = tuple(zip(ms, certs))
    for m, cert in per_m:
        if cert.status == "not_contractible":
            return SubdivisionVerdict("not_subdivision", m_max, depth, per_m, m)
    if all(cert.certified() for _, cert in per_m):
        return SubdivisionVerdict("subdivision", m_max, depth, per_m)
    return SubdivisionVerdict("inconclusive", m_max, depth, per_m)
