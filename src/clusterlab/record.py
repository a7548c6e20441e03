"""`Record`, the base class of clusterlab's immutable value classes."""

from operator import attrgetter


class Record:
    """An immutable value compared, hashed and printed by its fields.

    A subclass lists its compared fields in `_fields`, in constructor order,
    and sets its attributes in `__init__` past the `__setattr__` below, with
    `object.__setattr__` or through an instance `__dict__`.  Two
    records are equal when they have the same class and equal field tuples,
    the hash is the hash of that tuple, and the repr is
    `Name(field=value, ...)`.  Assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the field tuple; attrgetter of one name returns the bare value
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        # Every graph build compares the glue sides of its tiles, which are
        # nearly always one object: `is` answers those without the tuples.
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore attributes here, past __setattr__; the
        # state is the instance __dict__, or (None, slot values) with slots
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


__all__ = ["Record"]
