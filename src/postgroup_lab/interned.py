"""Hash-consed value classes: one object per value (Filliatre and
Conchon, "Type-safe modular hash-consing", ML Workshop 2006).

A subclass's __new__ looks its value up in a module-level table, which
is never cleared, and calls _build only on a miss.  Equality is then
the default identity test.  Each object stores its hash when it is
built: the hash of the tuple of its fields, as a frozen dataclass with
the same fields has, so set and dict orders do not depend on addresses.
"""


class Interned:
    """Immutable value whose fields are its subclass's __slots__."""

    __slots__ = ("_hash",)

    @classmethod
    def _build(cls, values: tuple):
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(values))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor, so pickle and deepcopy intern
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
