"""Immutability for the package's value classes.

Poly, PartialMatching and EvenTree are plain classes rather than frozen
dataclasses, so `import tricatalan` loads neither dataclasses nor inspect.
Each sets its fields once, with object.__setattr__, in __init__ or _trusted;
afterwards every assignment or deletion raises AttributeError.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
