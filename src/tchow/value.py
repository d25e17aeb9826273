"""Immutable value objects, compared, hashed and shown by their fields.

A subclass declares its fields as class annotations, in order, and sets them
in its own ``__init__`` with ``object.__setattr__``.  Equality, hashing and
``repr`` read those fields alone, as a frozen dataclass does: objects of
different classes are unequal, and the hash is that of the tuple of fields.
Derived data kept on the instance ``__dict__`` (a ``cached_property``, the
memoized hash) is outside the value.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    _fields: tuple[str, ...] = ()
    _hash = None

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)  # after the base class's fields
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value; the key is a tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
