"""Immutable value records, without importing ``dataclasses``.

A record class lists its fields in ``__slots__``, in constructor order.
``Record.__init__`` stores them, given by position then by name, and their
tuple as ``_key``; a validating ``__init__`` ends by calling it.  Any other
slot whose name starts with ``_`` holds a cached value, not a field.

``Record`` supplies the value semantics hornkit needs: equality between
instances of the same class and a hash, both of ``_key`` alone; the
``Name(field=value, ...)`` repr; and ``AttributeError`` on assignment or
deletion.  Pickling and copying rebuild the object through its
constructor from ``_key``.  ``integer`` reads an integer argument: it
refuses a float or string that ``int`` would truncate or parse.

This replaces ``dataclass(frozen=True)`` because every CLI query is a
fresh process that pays for each import: ``dataclasses`` imports
``inspect``, and each dataclass compiles generated source when its module
is imported.
"""

from __future__ import annotations

from operator import index

__all__ = ["Record", "setfield", "integer"]

setfield = object.__setattr__


def integer(x: object) -> int:
    """x by ``operator.index``; ValueError names any x without ``__index__``."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{x!r} is not an integer") from None


class Record:
    __slots__ = ("_key",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs:
            n = len(args)
            args += tuple(kwargs.pop(name) for name in fields[n:] if name in kwargs)
            for name in kwargs:
                how = "twice" if name in fields[:n] else "as an unknown field"
                raise TypeError(f"{self.__class__.__qualname__}() got {name!r} {how}")
        if len(args) != len(fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes {fields}, got {len(args)}")
        for name, value in zip(fields, args):
            setfield(self, name, value)
        setfield(self, "_key", args)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self) -> tuple:
        return self.__class__, self._key

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
