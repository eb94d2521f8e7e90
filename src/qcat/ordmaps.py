"""Monotone maps between finite ordinals [n] = {0 < 1 < ... < n}.

These are the arrows of the simplex category.  Every monotone map factors
uniquely as a monotone surjection, named by its doubles, followed by a
monotone injection, named by the vertices it misses.  That factorization
is what lets a combinatorially presented simplicial set act on formal
(degeneracy word, cell) values with nothing but face records: a normal
degeneracy word is the decreasing list of a surjection's doubles.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .record import Record


class DeltaMap(Record):
    """A monotone map [source_arity] -> [target_arity], stored by its images."""

    __slots__ = ("source_arity", "target_arity", "values")

    def __init__(self, source_arity: int, target_arity: int,
                 values: tuple[int, ...]):
        if source_arity < 0 or target_arity < 0:
            raise ValueError("ordinals [n] need n >= 0")
        if len(values) != source_arity + 1:
            raise ValueError("value tuple does not match source arity")
        prev = 0
        for v in values:
            if v < prev or v > target_arity:
                raise ValueError(f"not a monotone map into [{target_arity}]: {values}")
            prev = v
        self.source_arity = source_arity
        self.target_arity = target_arity
        self.values = values

    def __call__(self, i: int) -> int:
        return self.values[i]

    def compose(self, other: "DeltaMap") -> "DeltaMap":
        """self o other, defined when other lands in self's source."""
        if other.target_arity != self.source_arity:
            raise ValueError("arity mismatch in composition")
        return DeltaMap(other.source_arity, self.target_arity,
                        tuple(self.values[v] for v in other.values))

    @staticmethod
    def identity(n: int) -> "DeltaMap":
        return DeltaMap(n, n, tuple(range(n + 1)))

    @staticmethod
    def coface(i: int, n: int) -> "DeltaMap":
        """The injection [n-1] -> [n] that skips i."""
        if not 0 <= i <= n or n < 1:
            raise ValueError(f"no coface {i} into [{n}]")
        return DeltaMap(n - 1, n, tuple(v for v in range(n + 1) if v != i))

    @staticmethod
    def codegeneracy(j: int, n: int) -> "DeltaMap":
        """The surjection [n+1] -> [n] that repeats j."""
        if not 0 <= j <= n:
            raise ValueError(f"no codegeneracy {j} onto [{n}]")
        return DeltaMap(n + 1, n, tuple(list(range(j + 1)) + list(range(j, n + 1))))

    def reversed(self) -> "DeltaMap":
        """Conjugate by the order reversal on both ends: i |-> b - f(a - i)."""
        a, b = self.source_arity, self.target_arity
        return DeltaMap(a, b, tuple(b - self.values[a - i] for i in range(a + 1)))

    def misses(self) -> tuple[int, ...]:
        hit = set(self.values)
        return tuple(v for v in range(self.target_arity + 1) if v not in hit)

    def doubles(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.source_arity) if self.values[i] == self.values[i + 1])


def all_maps(a: int, b: int):
    """All monotone maps [a] -> [b], in lexicographic order of value tuples."""
    for values in combinations_with_replacement(range(b + 1), a + 1):
        yield DeltaMap(a, b, values)
