"""Record behaviour for the package's value and report classes, written once.

A record's fields are its instance attributes, in the order they were set.
Record derives from them the dataclass-style repr, ClassName(f=..., g=...),
and equality by field values with objects of the same class; records stay
mutable and unhashable.  Frozen refuses every assignment and deletion with
AttributeError, and gives each subclass two methods written for its own
fields: _trusted, which builds an instance from values in the order of the
class's field annotations without running __init__ and its checks, and
__hash__, the hash of the tuple of field values.

Those two are compiled once per class, when the class statement runs
(Frozen.__init_subclass__), from source text in the way dataclasses and
namedtuple build their methods: _trusted takes one parameter per field and
stores each straight into the new instance's __dict__, and __hash__ hashes
the fields read by name, so neither loops over zip or vars() per object.
The source holds nothing but the field names, which are the annotation
keys of a class body and so identifiers, spelled as parameter names and as
string literals.  Its own names start with two underscores and do not end
with two; Python mangles such a name in a class body (__x becomes
_Class__x), so no field annotation can spell one of them.

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
    object.__setattr__, or by cls._trusted(*fields), which takes values that
    already satisfy every invariant of the class's docstring and skips
    __init__ and its checks."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        stores = "".join(f"    __d[{f!r}] = {f}\n" for f in fields)
        values = "".join(f"__d[{f!r}], " for f in fields)
        source = (
            f"def _trusted(__cls, {''.join(f + ', ' for f in fields)}):\n"
            "    __self = __new(__cls)\n"
            "    __d = __self.__dict__\n"
            f"{stores}"
            "    return __self\n"
            "def __hash__(__self):\n"
            "    __d = __self.__dict__\n"
            f"    return hash(({values}))\n"
        )
        namespace: dict[str, object] = {"__new": object.__new__}
        exec(compile(source, f"<Frozen {cls.__qualname__}>", "exec"), namespace)
        cls._trusted = classmethod(namespace["_trusted"])
        cls.__hash__ = namespace["__hash__"]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
