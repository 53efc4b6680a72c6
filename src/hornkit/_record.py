"""Immutable value records, without importing ``dataclasses``.

A record class lists its fields in ``__slots__``, in constructor order.
Its ``__init__`` validates the arguments, stores each field with
``setfield``, and stores the tuple of field values as ``_key``.  Any
other slot whose name starts with ``_`` holds a cached value, not a field.

``Record`` supplies the value semantics hornkit needs: equality between
instances of the same class and a hash, both of ``_key`` alone; the
``Name(field=value, ...)`` repr; and ``AttributeError`` on assignment or
deletion.  Pickling and copying rebuild the object through its
constructor from ``_key``.

This replaces ``dataclass(frozen=True)`` because every CLI query is a
fresh process that pays for each import: ``dataclasses`` imports
``inspect``, and each dataclass compiles generated source when its module
is imported.
"""

from __future__ import annotations

__all__ = ["Record", "setfield"]

setfield = object.__setattr__


class Record:
    __slots__ = ("_key",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))

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
