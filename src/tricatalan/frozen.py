"""Record behaviour for the package's value and report classes, written once.

A record's fields are its instance attributes, in the order they were set.
Record derives from them the dataclass-style repr, ClassName(f=..., g=...),
and equality by field values with objects of the same class; records stay
mutable and unhashable.  Frozen refuses every assignment and deletion with
AttributeError, and gives every subclass the same two methods, which read
the class's field names in the order of its annotations: _trusted, which
builds an instance from values in that order without running __init__ and
its checks, and __hash__, the hash of the tuple of field values.

Frozen keeps each subclass's field names under the mangled name
_Frozen__fields, which a field annotation in a subclass body, itself
mangled there, does not spell.

These are plain classes rather than dataclasses, so `import tricatalan`
loads neither dataclasses nor inspect.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__


class Frozen(Record):
    """Fields are set once, in the order of the annotations: by __init__ with
    object.__setattr__, or by cls._trusted(*fields), which takes values that
    already satisfy every invariant of the class's docstring and skips
    __init__ and its checks."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.__fields = tuple(cls.__annotations__)

    @classmethod
    def _trusted(cls, *values: object) -> Frozen:
        fields = cls.__fields
        if len(values) != len(fields):
            raise TypeError(
                f"{cls.__name__}._trusted takes {len(fields)} values, got {len(values)}"
            )
        self = object.__new__(cls)
        d = self.__dict__
        for name, value in zip(fields, values):
            d[name] = value
        return self

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
