"""Spans around calls into tricatalan's layers, recorded from outside the package.

A layer is one module of the package (LAYERS).  Every public function,
every public class constructor and public method, and every layer's module
import is replaced by a wrapper that records one span: name, parent span,
the batch call (op) it belongs to, start, end, and a small value for the
functions in VALUES.  Spans live in typed arrays in memory and are written
to one file when the batch ends; summarize() turns them into self times and
counts.  The root span "bench.process" runs from the parent's spawn of the
process to the end of the batch.  Span names are "<layer>.<function>",
"<layer>.<Class>" for constructions, "<layer>.<method>" for methods with
dunders stripped ("poly.add" is Poly.__add__), and "<layer>.import".

Each wrapper is one extra Python frame.  So that a traced batch fails
exactly the calls an untraced one fails, a wrapper raises the recursion
limit by one while it is active: the limit is always the interpreter's own
limit plus the number of wrapper frames on the stack.
"""

from __future__ import annotations

import importlib.machinery
import json
import sys
import time
from array import array

LAYERS = ("cli", "verify", "lattice", "poly", "matching", "eventree")
# Functions whose result is recorded as the span value.
VALUES = {
    "lattice.enumerate_paths": "len",
    "matching.enumerate_matchings": "len",
    "matching.contains_pattern": "truth",
}
_FIELDS = (
    ("name", "H"),
    ("parent", "i"),
    ("op", "i"),
    ("start", "d"),
    ("end", "d"),
    ("value", "q"),
)


class Tracer:
    def __init__(self, spawn: float) -> None:
        self.names: list[str] = []
        self.arrays = {field: array(code) for field, code in _FIELDS}
        self.op = -1
        self.base_limit = sys.getrecursionlimit()
        self._stack = [0]
        # The root span: from the parent's spawn of this process to close().
        self.names.append("bench.process")
        for field, value in zip(self.arrays, (0, -1, -1, spawn, 0.0, -1)):
            self.arrays[field].append(value)

    def wrap(self, fn, name: str):
        """Return fn wrapped in a span called name."""
        if name in self.names:
            raise ValueError(f"span name {name!r} is already taken")
        name_id = len(self.names)
        self.names.append(name)
        kind = VALUES.get(name)
        stack = self._stack
        a = self.arrays
        names, parents, ops = a["name"].append, a["parent"].append, a["op"].append
        starts, ends_append, values_append = a["start"].append, a["end"].append, a["value"].append
        ends, values = a["end"], a["value"]
        base = self.base_limit
        setlimit = sys.setrecursionlimit
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            depth = len(stack)  # wrapper frames active, plus the root span
            setlimit(base + depth)
            idx = len(ends)
            names(name_id)
            parents(stack[-1])
            ops(tracer.op)
            ends_append(0.0)
            values_append(-1)
            stack.append(idx)
            starts(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                setlimit(base + depth - 1)
            if kind == "len":
                values[idx] = len(result) if isinstance(result, (list, tuple)) else -1
            elif kind == "truth":
                values[idx] = 1 if result else 0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def trace_imports(self, package: str) -> None:
        """Give each layer's module import a span; call before importing it."""
        sys.meta_path.insert(0, _ImportSpans(self, package))

    def trace_package(self, package: str) -> None:
        """Wrap the public callables of every layer and rebind every reference."""
        modules = [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._trace_class(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        # Modules reach each other's functions through their own globals
        # (from-imports), so every binding of an original is replaced.
        for mod in [sys.modules[package], *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _trace_class(self, layer: str, cls: type) -> None:
        cls.__init__ = self.wrap(cls.__init__, f"{layer}.{cls.__name__}")
        for attr, obj in list(vars(cls).items()):
            if attr == "__add__":
                name = f"{layer}.add"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(obj.__func__, name)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(obj.__func__, name)))
            elif callable(obj):
                setattr(cls, attr, self.wrap(obj, name))

    def close(self, end: float) -> None:
        self.arrays["end"][0] = end

    def write(self, path: str) -> None:
        header = {"names": self.names, "count": len(self.arrays["end"]),
                  "fields": _FIELDS, "base_recursion_limit": self.base_limit}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                self.arrays[field].tofile(f)


class _ImportSpans:
    """Meta-path finder that wraps the loader of each layer module in a span."""

    def __init__(self, tracer: Tracer, package: str) -> None:
        self.tracer = tracer
        self.package = package

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.rpartition(".")
        if package != self.package or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader.exec_module = self.tracer.wrap(
                spec.loader.exec_module, f"{layer}.import"
            )
        return spec


def load_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Read a span file back: (names, arrays by field)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(f, header["count"])
            arrays[field] = arr
    return header["names"], arrays


def summarize(names: list[str], a: dict[str, array]) -> dict:
    """Self time, calls and value sums per span name, and self time per layer.

    A span's self time is its duration minus its children's durations.
    "checked_in" counts contains_pattern calls made inside an
    enumerate_matchings span, the base of kept_frac.
    """
    n = len(a["end"])
    name, parent, start, end, value = a["name"], a["parent"], a["start"], a["end"], a["value"]
    child = [0.0] * n
    for k in range(1, n):
        child[parent[k]] += end[k] - start[k]
    per_name = {nm: {"self_s": 0.0, "calls": 0, "value": 0} for nm in names}
    for k in range(n):
        entry = per_name[names[name[k]]]
        entry["self_s"] += end[k] - start[k] - child[k]
        entry["calls"] += 1
        if value[k] > 0:
            entry["value"] += value[k]
    layers = {layer: 0.0 for layer in ("bench",) + LAYERS}
    for nm, entry in per_name.items():
        layers[nm.split(".", 1)[0]] += entry["self_s"]
    checked_in = 0
    if "matching.contains_pattern" in per_name and "matching.enumerate_matchings" in per_name:
        target = names.index("matching.contains_pattern")
        enum_id = names.index("matching.enumerate_matchings")
        for k in range(n):
            if name[k] == target:
                p = parent[k]
                while p > 0 and name[p] != enum_id:
                    p = parent[p]
                checked_in += p > 0
    return {"names": per_name, "layers": layers, "checked_in": checked_in,
            "root_s": end[0] - start[0]}
