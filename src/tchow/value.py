"""Immutable value objects, built, compared, hashed and shown by their fields.

A subclass declares its fields as class annotations, in order, and a default
as a class-body value (``point: str | None = None``), as in a dataclass.  The
constructor takes the fields by position, the base class's first, or by
keyword, and sets them with ``object.__setattr__``.  Equality, hashing and
``repr`` read those fields alone, as a frozen dataclass does: objects of
different classes are unequal, and the hash is that of the tuple of
fields.  Derived data kept on the instance (a :class:`lazy` attribute, data a
constructor stored with :func:`keep`, the memoized hash) is outside the
value.  :class:`lazy` is ``functools.cached_property`` as Python 3.12 has it,
without the lock 3.11 takes on each first read.  Every cone and polyhedron the
library builds, and what a ``make_*`` constructor returns, is canonical: one
object per value for the life of the process, so a lazy attribute runs once
per value.  A cone is interned by its key, its sorted rays and rank
(``polyhedra._interned_cone``), a polyhedron by its canonical cone
(``polyhedra.from_homogenized``), and a fan, complex or divisor by
:func:`canonical`.  A class constructor's object is not canonical.  The memo
rule: a table of one object is a :class:`lazy` attribute of it, which
another object's may :func:`keep` (a full-dimensional cone's ``faces`` keep
each facet's character, its ``span_eqs``); an ``lru_cache`` is an interning
table (those three), an input memo (work done before the object exists:
``_make_cone``, ``_make_fan``, ``downgrade``, ``bundle_rank2``, and the
command line's ``_fan_of`` on validated coordinates) or a table with a
second argument (``s_sigma``, ``enumerate_generators``, ``presentation``,
``eff_generators``, ``toric_chow_presentation``).
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

_set = object.__setattr__  # never the instance dict: reading it turns off inline attribute values


class lazy:
    """A derived attribute, computed on its first read and stored on the instance.

    A non-data descriptor: every later read finds the stored value first.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        _set(obj, self.name, value)
        return value


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


def keep(obj, **derived):
    """Store on ``obj`` what a constructor derived, under names of its :class:`lazy` attributes."""
    for name, value in derived.items():
        _set(obj, name, value)
    return obj


@lru_cache(maxsize=None)
def canonical(obj):
    """The first object passed here that equals ``obj`` (``obj`` itself, the first time)."""
    return obj
