"""Base class for pairdom's small value types.

A subclass names its fields in `__slots__` and assigns each one in its own
`__init__`. Instances of one class compare equal when their fields do, hash
by their fields, and print as `Name(field=value, ...)`. A class whose
instances are mutated after construction sets `__hash__ = None`.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
