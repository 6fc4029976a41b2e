"""Immutable value classes whose fields are their __slots__, and
hash-consed ones (Filliatre and Conchon, "Type-safe modular
hash-consing", ML Workshop 2006).

Record keeps the contract of a frozen dataclass with the same fields:
construction by position or keyword, equality within one class, the
hash of the tuple of fields, the same repr, AttributeError on
assignment, and pickle and copy through the constructor.  It generates
no code: each subclass gets _values, an attrgetter of its fields, and
_setters, the __set__ of each of its slots.  A slot named with a
leading underscore is private; it comes after the fields and stays out
of equality, hash and repr.  A subclass that validates writes __new__
and builds through _of, which sets the slots it is given; one with a
default or a private slot writes __init__ and stores each by its setter.

An Interned subclass keeps one object per value.  Its __new__ looks the
value up in a module-level table, which is never cleared, and calls
_build, with the values of any private slots, only on a miss.  Equality
is then the default identity test, and each object stores its hash when
it is built.
"""

from operator import attrgetter


class Record:
    """Immutable value whose fields are its subclass's __slots__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "__new__" in cls.__dict__:  # __new__ has stored the fields
            cls.__init__ = object.__init__
        slots = cls.__dict__["__slots__"]
        fields = tuple(name for name in slots if not name.startswith("_"))
        if not fields:  # Interned, a base with no fields of its own
            return
        cls._fields = fields
        cls._setters = tuple(cls.__dict__[name].__set__ for name in slots)
        get = attrgetter(*fields)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._values = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs:
            later = self._fields[len(args):]
            args += tuple(kwargs.pop(name) for name in later if name in kwargs)
        if kwargs or len(args) != len(setters):
            raise TypeError(
                f"{type(self).__qualname__}() takes exactly the fields "
                f"{', '.join(self._fields)}"
            )
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _of(cls, *values):
        self = object.__new__(cls)
        for set_slot, value in zip(cls._setters, values):
            set_slot(self, value)
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuild through the constructor, which validates (and interns)
        return type(self), self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))
        )
        return f"{type(self).__qualname__}({fields})"


class Interned(Record):
    """Record with one object per value; subclasses define __new__."""

    __slots__ = ("_hash",)

    __eq__ = object.__eq__  # equal values are one object

    @classmethod
    def _build(cls, values: tuple, *private):
        self = cls._of(*values, *private)
        object.__setattr__(self, "_hash", hash(values))
        return self

    def __hash__(self) -> int:
        return self._hash

