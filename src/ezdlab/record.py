"""Plain slotted records, made by the ``class`` statement alone: no code is
generated or ``exec``-ed.  A record lists its fields in ``__slots__``, in
constructor order.  Its value, which equality, the hash, the repr
``Name(field=value, ...)`` and ``replace`` use, is ``_fields``: every slot
unless the class names fewer.  The generic ``__init__`` takes the slots by
position or name, with ``_defaults`` for trailing ones; a record with
checks, computed slots or a hot constructor writes its own, setting slots
with ``_set``.
"""

from operator import attrgetter

_set = object.__setattr__


class FrozenRecordError(AttributeError):
    """An assignment to a field of a frozen record."""


class Record:
    """A mutable, unhashable record."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # a subclass without slots of its own only changes behaviour
        own = cls.__dict__
        fields = cls._fields = own.get("_fields", own.get("__slots__", cls._fields))
        if len(fields) == 1:
            one = attrgetter(fields[0])
            cls._values = staticmethod(lambda self: (one(self),))
        else:
            cls._values = staticmethod(attrgetter(*fields) if fields else lambda self: ())

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or values.keys() != set(names)
                    or kwargs.keys() & set(names[: len(args)])):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(names)}; "
                                f"got {len(args)} positional and {sorted(kwargs)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # a tuple compares identical items as equal, so a record equals itself
            return self is other or self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A new record of this type: this one's value with ``changes``; slots
        outside the value start afresh."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))


class Frozen(Record):
    """A record that refuses assignment and hashes its value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values(self))
