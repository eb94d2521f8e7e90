"""Frozen dataclass twins of the package's hashed and compared value
classes, for `test_value_classes.py`.

Each twin has its class's name and fields in order, so the dataclass
machinery gives the `__eq__`, `__hash__` and `__repr__` that the
hand-written methods must reproduce.  A class that wrote its own
`__repr__` (Mor, Span) keeps it here too: the dataclass decorator does
not replace a `__repr__` the class defines.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Mor:
    src: object
    dst: object
    rows: tuple

    def __repr__(self):
        return f"Mor({self.src!r}->{self.dst!r}, {self.rows!r})"


@dataclass(frozen=True)
class Span:
    src: object
    dst: object
    members: frozenset

    def __repr__(self):
        return f"Span({self.src!r}->{self.dst!r}, {sorted(self.members)!r})"


@dataclass(frozen=True)
class Square:
    top: Mor
    left: Mor
    right: Mor
    bottom: Mor


@dataclass(frozen=True)
class TripleReport:
    passed: bool
    squares_checked: int
    failures: tuple


@dataclass(frozen=True)
class DeltaMap:
    source_arity: int
    target_arity: int
    values: tuple


@dataclass(frozen=True)
class LambdaMorphism:
    source: frozenset
    target: frozenset
    pairs: tuple


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple


@dataclass(frozen=True)
class JoinWord:
    tokens: tuple


@dataclass(frozen=True)
class ConstWord:
    k: int


@dataclass(frozen=True)
class Contractibility:
    status: str
    depth: object
    reason: str


@dataclass(frozen=True)
class QCategory:
    instance: object
    category: object
    span_of: dict = field(compare=False)
    name_of: dict = field(compare=False)
