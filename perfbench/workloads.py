"""The benchmark's workloads: seeded inputs for tricatalan's CLI and their checks.

Every workload is a batch of CLI calls (argv lists) that one fresh
interpreter runs in order, one client in a closed loop.  Each call carries
what its check needs and how many work units ("steps") it covers:

- verify-n5: `verify --max-n 5 --seed <seed>`, the oracle path.  Many tiny
  objects; matching's pattern check and the even-tree bijection dominate,
  while lattice and poly do almost nothing.  A step is one verify check.
  One call takes about 2 s, so a run holds some twenty calls, each timed
  against the reference just around it; at --max-n 6 a call takes about
  15 s and a run holds two.
- table-400: `table --max-i 400 --format json`.  Bulk column DP, big-integer
  adds and a 238 MB JSON encode; matching and eventree do no work.  A step
  is one table cell.  The seed does not change this workload's input.  Its
  time goes mostly to fresh memory and copies, so its timings are given in
  refs of the memory reference; the others use the interpreter reference.
- map-long: `map` on few large objects.  Random paths of 600 and 2,400
  steps ending on the line (2n, n) through path-to-matching, path-to-tree
  and tree-to-path on the tree just produced; matching-to-path and
  matching-to-tree on matchings folded from 51-90-step paths, where the
  backtracking pattern check starts to cost 0.03-0.25 s per call; and the
  staircase E^1200 N^600, whose path-to-tree exceeds the default recursion
  limit in the seed version and must be counted as a failure.  A step is
  one path step mapped.  BENCHMARK.json does not list map-long: over ten
  seeds its ref figures still spread by 7-16% (its seconds by 32-38%),
  mostly from the seeded shapes of its small matchings.  Run it by name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import oracle

# sha256 of `table --max-i N --format json` output, newline included.
TABLE_SHA256 = {
    400: "a27c2a371983d1ca1a645dcf7b98571a3912a91b3722e9e1cddc4650ff0eb898",
    16: "444e736b2a8a6ecdb9aa9677795f7532d5bb0c8fafa19f8e0cd3fde1dede0353",
}

# Sizes of each workload; "tiny" serves the benchmark's own smoke tests.
SIZES = {
    "full": {
        "verify_max_n": 5,
        "table_max_i": 400,
        "map_long_ns": (200, 200, 200, 200, 800),
        "map_small_ns": tuple(range(17, 31)),
        "staircase_n": 600,
    },
    "tiny": {
        "verify_max_n": 2,
        "table_max_i": 16,
        "map_long_ns": (10, 20),
        "map_small_ns": (5, 6),
        "staircase_n": 600,
    },
}


@dataclass
class Op:
    argv: list[str]
    check: tuple  # (kind, payload) for check_output
    steps: int
    input_from: int | None = None  # index of the op whose stdout is the last argument


@dataclass
class Workload:
    name: str
    ops: list[Op]
    keep: bool  # keep stdout text for the checks (false for the big table)
    sizes: dict
    step: str  # what one step of Op.steps is
    scan_max_i: int | None = None  # run one untimed, fully scanned table call
    reference: str = "interpreter"  # what timings are given in (run.REFERENCES)


def line_path(rng: random.Random, n: int) -> str:
    """Random valid path from the origin to (2n, n), below x = 2y throughout."""
    steps = []
    x = y = 0
    while x < 2 * n or y < n:
        east_left, north_left = 2 * n - x, n - y
        north_ok = north_left > 0 and x >= 2 * (y + 1)
        if x < 2 * n and (not north_ok or rng.random() < east_left / (east_left + north_left)):
            steps.append("E")
            x += 1
        else:
            steps.append("N")
            y += 1
    return "".join(steps)


def _compact(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def verify_n5(seed: int, sizes: dict) -> Workload:
    max_n = sizes["verify_max_n"]
    argv = ["verify", "--max-n", str(max_n), "--seed", str(seed)]
    op = Op(argv, ("verify", None), len(oracle.VERIFY_CHECKS))
    return Workload("verify-n5", [op], True, {"max_n": max_n}, "verify checks")


def table_400(seed: int, sizes: dict) -> Workload:
    max_i = sizes["table_max_i"]
    cells = sum(i // 2 + 1 for i in range(max_i + 1))
    op = Op(["table", "--max-i", str(max_i), "--format", "json"], ("table", max_i), cells)
    return Workload("table-400", [op], False, {"max_i": max_i, "cells": cells}, "table cells",
                    max_i, "memory")


def map_long(seed: int, sizes: dict) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []

    def add(kind: str, value: str | None, check: tuple, path: str, src: int | None = None) -> int:
        argv = ["map", kind] + ([value] if value is not None else [])
        ops.append(Op(argv, check, len(path), src))
        return len(ops) - 1

    def path_trio(path: str) -> None:
        add("path-to-matching", path, ("matching", path), path)
        tree = add("path-to-tree", path, ("tree", path), path)
        add("tree-to-path", None, ("path", path), path, tree)

    for n in sizes["map_long_ns"]:
        path_trio(line_path(rng, n))
    for n in sizes["map_small_ns"]:
        path = line_path(rng, n)
        folded = _compact(oracle.fold_matching(path))
        add("matching-to-path", folded, ("path", path), path)
        add("matching-to-tree", folded, ("tree", path), path)
    n = sizes["staircase_n"]
    path_trio("E" * (2 * n) + "N" * n)
    return Workload(
        "map-long",
        ops,
        True,
        {
            "long_path_steps": [3 * n for n in sizes["map_long_ns"]],
            "small_path_steps": [3 * n for n in sizes["map_small_ns"]],
            "staircase_steps": 3 * sizes["staircase_n"],
        },
        "path steps",
    )


WORKLOADS = {"verify-n5": verify_n5, "table-400": table_400, "map-long": map_long}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    return WORKLOADS[name](seed, SIZES[scale])


def check_output(op: Op, text: str | None, sha256: str) -> str | None:
    """None when a call that exited 0 printed the right output, else why not."""
    kind, payload = op.check
    if kind == "verify":
        return oracle.verify_text_ok(text or "")
    if kind == "table":
        want = TABLE_SHA256.get(payload)
        if want is not None and sha256 != want:
            return f"sha256 {sha256} differs from the recorded {want}"
        return None
    try:
        got = json.loads(text or "")
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    path = payload
    if kind == "path":
        return None if got == path else "recovered path differs from the input path"
    if kind == "matching":
        if got != oracle.fold_matching(path):
            return "matching differs from the folded path"
        if oracle.crossings(got) != oracle.weight_exponent(path):
            return "crossings differ from the weight exponent"
        return None
    if got != oracle.fold_tree(path):
        return "tree differs from the folded path"
    if oracle.r_index(got) != oracle.weight_exponent(path):
        return "r-index differs from the weight exponent"
    return None
