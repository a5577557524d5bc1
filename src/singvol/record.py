"""Immutable value records, the package's plain replacement for frozen
dataclasses (importing ``dataclasses`` pulls in ``inspect`` and costs more
than a short command's own work).

A record class names its fields in ``_fields`` and assigns them in its own
``__init__`` through ``object.__setattr__``; any later assignment raises.
Two records are equal when they are of the same class with equal fields, so
records of different classes never compare equal (unlike ``NamedTuple``s).
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
