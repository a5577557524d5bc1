"""Immutable value records, the package's plain replacement for frozen
dataclasses (importing ``dataclasses`` pulls in ``inspect`` and costs more
than a short command's own work).

A record class declares its fields once, in ``_fields``, with defaults for
the trailing ones in ``_defaults`` as for ``namedtuple``. Defining the class
compiles its ``__init__``: it takes the fields by position or keyword, sets
them, and then calls ``self.__post_init__()`` if the class has that hook,
looking it up on each call so that a hook replaced on the class is the one
that runs; no other constructor skips it. Any later assignment raises. Two
records are equal when they are of the same class with equal fields, so
records of different classes never compare equal (unlike ``NamedTuple``s).

:class:`lazy` is the package's cached attribute: ``functools.cached_property``
takes a lock on every first read on Python 3.11 (0.71 against 0.19 us on a
2-vCPU machine). Two threads reading a fresh one at once may both compute it,
an equal value either way, since it is a pure function of immutable fields.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        """Compile ``cls.__init__``. Its code names only the fields and the
        helpers ``_self`` and ``_setattr``, which no field may shadow."""
        super().__init_subclass__(**kwargs)
        if any(f.startswith("_") for f in cls._fields):
            raise TypeError(f"{cls.__qualname__}: record field names may not start with '_'")
        lines = [f"def __init__(_self, {', '.join(cls._fields)}):"]
        lines += [f" _setattr(_self, {f!r}, {f})" for f in cls._fields]
        lines.append(" _self.__post_init__()" if hasattr(cls, "__post_init__") else " pass")
        namespace = {"_setattr": object.__setattr__}
        exec("\n".join(lines), namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # pickle and copy rebuild through __init__, from the fields
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class lazy:
    """A lock-free cached attribute: ``func(obj)`` on first read, stored in
    ``obj.__dict__[func.__name__]``, which ``discrepancy_report`` relies on."""

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value
