"""Immutable value classes without the dataclasses machinery.

A subclass names its fields once, ``__slots__ = _fields = (...)``, and its
``__init__`` stores each field with ``object.__setattr__``, a sequence as a
tuple, so values built from a list and from a tuple are equal.  ``Value``
gives it what a frozen dataclass had: equality over the fields between
instances of the same class, the hash of the field tuple, the
``Name(f=...)`` repr, and instances that refuse assignment and deletion.
Every cache of the package keys on ints, tuples and frozensets, such as an
ideal's generator exponents, never on a value, so a value keeps no hash.
"""
from operator import attrgetter


def tuples(rows) -> tuple[tuple, ...]:
    """``rows`` as a tuple of tuples; a tuple of tuples is kept as it is."""
    if type(rows) is tuple and all(type(row) is tuple for row in rows):
        return rows
    return tuple(map(tuple, rows))


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:
            # C, not a getattr loop: every set or dict lookup of a value calls it
            cls._get = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        values = self._get(self)
        return hash(values if len(self._fields) > 1 else (values,))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle restore the fields past the refusing __setattr__
    def __reduce__(self):
        return object.__new__, (self.__class__,), {n: getattr(self, n) for n in self._fields}

    def __setstate__(self, state: dict) -> None:
        for name, field in state.items():
            object.__setattr__(self, name, field)

