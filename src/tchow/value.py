"""Immutable value objects, built, compared, hashed and shown by their fields.

A subclass declares its fields as class annotations, in order, and a default
as a class-body value (``point: str | None = None``), as in a dataclass.  The
constructor takes the fields by position, the base class's first, or by
keyword, and sets them with ``object.__setattr__``.  Equality, hashing and
``repr`` read those fields alone, as a frozen dataclass does: objects of
different classes are unequal, and the hash is that of the tuple of fields.
Derived data kept on the instance ``__dict__`` (a ``cached_property``, the
memoized hash) is outside the value.
The ``make_*`` constructors return :func:`canonical` of what they build:
one object per value for the life of the process, whose derived data serve
every later build of that value.  A class constructor's object is not canonical.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

_set = object.__setattr__  # never self.__dict__, which would turn off inline attribute values


class Value:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _hash = None

    def __init_subclass__(cls):
        own = tuple(cls.__annotations__)
        cls._fields += own  # after the base class's fields
        cls._defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value; the key is a tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for f, v in zip(self._fields, args):
            _set(self, f, v)

    def _bind(self, args, kwargs):
        """Every field's value, in order: ``args``, then ``kwargs`` or the default."""
        name, fields = self.__class__.__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = list(args)
        for f in fields[len(args) :]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in self._defaults:
                values.append(self._defaults[f])
            else:
                raise TypeError(f"{name}() missing field {f!r}")
        if kwargs:  # a keyword that names no field, or one already given by position
            raise TypeError(f"{name}() got unknown or repeated field {next(iter(kwargs))!r}")
        return values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key(self))
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@lru_cache(maxsize=None)
def canonical(obj):
    """The first object passed here that equals ``obj`` (``obj`` itself, the first time)."""
    return obj
