"""The equality, hashing and repr of the package's compared value classes.

A subclass names its fields in `__slots__` (a name that starts with `_`
is private state, not a field) and keeps its own `__init__`; `Record`
gives it the `__eq__`, `__hash__` and `__repr__` a frozen dataclass with
those fields would have, without loading `dataclasses`.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        """`compare` names the fields that equality and hashing read,
        when that is not all of them."""
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        keys = compare or cls._fields
        get = attrgetter(*keys)
        # a one-field key is the 1-tuple a dataclass would hash
        cls._key = staticmethod(get if len(keys) > 1
                                else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({args})"
