"""Record behaviour for the package's value and report classes, written once.

A record's fields are its instance attributes, in the order they were set.
Record derives from them the dataclass-style repr, ClassName(f=..., g=...),
and equality by field values with objects of the same class; records stay
mutable and unhashable.  Frozen derives its hash from the tuple of field
values, refuses every assignment and deletion with AttributeError, and adds
_trusted, which builds an instance from values in the order of the class's
field annotations without running __init__ and its checks.

These are plain classes rather than dataclasses, so `import tricatalan`
loads neither dataclasses nor inspect.
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class Frozen(Record):
    """Fields are set once, in the order of the annotations: by __init__ with
    object.__setattr__, or by _trusted."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _trusted(cls, *values: object):
        """An instance holding values that already satisfy every invariant of
        the class's docstring, skipping __init__ and its checks."""
        value = object.__new__(cls)
        vars(value).update(zip(cls.__annotations__, values))
        return value
