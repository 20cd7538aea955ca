"""Command-line front end: table, map, enum, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain rejection.  JSON output is compact and deterministic.  `table
--format json/csv` writes each cell as soon as it is converted, and `verify`
in text and csv writes and flushes each check's line as soon as that check
has run; `verify --format json` is one object written at the end.  A reader
that closes stdout early is a normal stop, exit 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import eventree, lattice, matching
from . import verify as verify_mod
from .errors import DomainError, ParseError

# The text grid holds every cell at once; json and csv stream any size.
TEXT_TABLE_MAX_I = 200
# map refolds a matching point by point; larger ones are refused before
# that work starts.  The library functions take any size.
MAP_MAX_POINTS = 10**6
# verify's closed-form checks grow faster than cubically with --max-n:
# --max-n 500 ran in 13 s at a 110 MB peak (Python 3.11, 2 CPUs), 600 in
# 26 s at 159 MB.  Larger values are refused before any check runs.
VERIFY_MAX_N = 500

MAP_KINDS = (
    "path-to-matching",
    "matching-to-path",
    "path-to-tree",
    "tree-to-path",
    "matching-to-tree",
)


# One prebuilt encoder: json.dumps with separators builds a new one per call.
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _read_value(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    return value


def _tree_json(tree: eventree.EvenTree) -> str:
    """Compact tree JSON written from the paren text, so depth is no limit:
    siblings ")(" become "],[", then every "(" a "[" and every ")" a "]"."""
    nodes = tree.body.replace(")(", "],[").replace("(", "[").replace(")", "]")
    return f'{{"dotted":{_compact(tree.dotted)},"root":[{nodes}]}}'


def _decode(value: str) -> object:
    """json.loads; JSON nested deeper than the decoder allows, or with an
    integer literal longer than the interpreter converts, is a ParseError."""
    try:
        return json.loads(value)
    except RecursionError as exc:
        raise ParseError(
            "JSON nested deeper than the decoder allows (about"
            f" {sys.getrecursionlimit()} levels, the recursion limit)"
        ) from exc
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        # Only the integer digit limit raises a plain ValueError here.
        # sys.get_int_max_str_digits is missing from early 3.10 releases.
        limit = getattr(sys, "get_int_max_str_digits", None)
        shown = f"{limit()} digits" if limit else "a limit"
        raise ParseError(
            f"JSON integer literal longer than the interpreter converts ({shown},"
            " sys.get_int_max_str_digits())"
        ) from exc


def _path_arg(value: str) -> str:
    """A JSON string, or else the bare text; the fold that reads the path
    checks its steps."""
    try:
        obj = _decode(value)
    except json.JSONDecodeError:
        return value
    if not isinstance(obj, str):
        raise ParseError("a path must be a string over the alphabet {E,N}")
    return obj


def _tree_arg(value: str) -> eventree.EvenTree:
    """Tree JSON, or else the paren text that `enum trees --format text` prints."""
    try:
        obj = _decode(value)
    except json.JSONDecodeError:
        return eventree.tree_from_paren(value)
    return eventree.tree_from_json(obj)


def _matching_arg(value: str) -> matching.PartialMatching:
    """Matching JSON with at most MAP_MAX_POINTS points; reading it costs
    O(edges), so a larger point count is refused before any O(m) work."""
    try:
        obj = _decode(value)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    m = matching.matching_from_json(obj)
    if m.m > MAP_MAX_POINTS:
        raise DomainError(
            f"map is limited to matchings of m <= {MAP_MAX_POINTS} points"
        )
    return m


def _coeff_digits(coeffs: tuple[int, ...]) -> list[str]:
    """The decimal text of each coefficient.  A palindromic cell, as every
    cell of an odd column is, converts its first half and mirrors it; the
    equality test decides, so any other cell is converted whole."""
    n = len(coeffs)
    half = n // 2
    if coeffs[:half] != coeffs[: n - half - 1 : -1]:
        return list(map(str, coeffs))
    digits = list(map(str, coeffs[: n - half]))
    return digits + digits[:half][::-1]


def cmd_table(args: argparse.Namespace) -> int:
    if args.max_i < 0:
        raise ParseError("--max-i must be nonnegative")
    if args.format == "text":
        _print_grid(args.max_i)
        return 0
    # One write per cell, as soon as it is converted, so no string is ever
    # larger than one cell's text.  No csv field can need quoting (digits and
    # spaces only), so rows are written without csv.writer.
    write = sys.stdout.write
    cells = (
        (i, j, coeffs)
        for i, column in enumerate(lattice.lattice_columns(args.max_i))
        for j, coeffs in enumerate(column)
    )
    if args.format == "json":
        separator = "["
        for i, j, coeffs in cells:
            write(f"{separator}[{i},{j},[{','.join(_coeff_digits(coeffs))}]]")
            separator = ","
        write("]\n")
    else:
        write("i,j,coeffs\n")
        for i, j, coeffs in cells:
            write(f"{i},{j},{' '.join(_coeff_digits(coeffs))}\n")
    return 0


def _print_grid(max_i: int) -> None:
    """The text grid, rows j descending; it needs every cell before the first line."""
    if max_i > TEXT_TABLE_MAX_I:
        raise ParseError(
            f"the text grid is limited to --max-i <= {TEXT_TABLE_MAX_I};"
            " use --format json or csv, which stream any size"
        )
    columns: list[list[str]] = [[] for _ in range(max_i + 1)]
    for i, _, p in lattice.lattice_table(max_i):
        columns[i].append(str(p))
    widths = [
        max(len(str(i)), *map(len, column)) for i, column in enumerate(columns)
    ]
    label = len(f"j={max_i // 2}")
    header = " " * label + "  " + "  ".join(
        str(i).rjust(widths[i]) for i in range(max_i + 1)
    )
    print(header.rstrip())
    for j in range(max_i // 2, -1, -1):
        row = [
            (column[j] if j < len(column) else "").rjust(width)
            for column, width in zip(columns, widths)
        ]
        print((f"j={j}".ljust(label) + "  " + "  ".join(row)).rstrip())


def cmd_map(args: argparse.Namespace) -> int:
    value = _read_value(args.value)
    kind = args.kind
    if kind == "path-to-matching":
        result = matching.path_to_matching(_path_arg(value))
        print(_compact(matching.matching_to_json(result)))
    elif kind == "matching-to-path":
        path = matching.matching_to_path(_matching_arg(value))
        print(_compact(path) if args.format == "json" else path)
    elif kind == "tree-to-path":
        path = eventree.tree_to_path(_tree_arg(value))
        print(_compact(path) if args.format == "json" else path)
    else:
        if kind == "path-to-tree":
            path = _path_arg(value)
        else:  # matching-to-tree, composed through the path
            path = matching.matching_to_path(_matching_arg(value))
        tree = eventree.path_to_tree(path)
        print(_tree_json(tree) if args.format == "json" else eventree.paren(tree))
    return 0


def _enum_objects(args: argparse.Namespace) -> tuple[list, str]:
    """Validate bounds and return (objects, csv header)."""
    family = args.family
    if family == "paths":
        if args.i is None or args.j is None:
            raise ParseError("paths need --i and --j")
        if args.i < 0 or args.j < 0 or args.i < 2 * args.j:
            raise ParseError(f"position ({args.i},{args.j}) must satisfy 0 <= 2j <= i")
        return list(lattice.enumerate_paths(args.i, args.j)), "path"
    if family == "matchings":
        if args.i is None or args.j is None:
            raise ParseError("matchings need --i (points) and --j (edges)")
        if args.i < 0 or args.j < 0 or 2 * args.j > args.i:
            raise ParseError(f"need 0 <= 2*{args.j} <= {args.i}")
        return matching.enumerate_matchings(args.i, args.j), "m,edges"
    if args.edges is None:
        raise ParseError("trees need --edges")
    if args.edges < 0 or args.edges % 2 != 0:
        raise ParseError("--edges must be even and nonnegative")
    return eventree.enumerate_even_trees(args.edges), "tree"


def cmd_enum(args: argparse.Namespace) -> int:
    objects, csv_header = _enum_objects(args)
    family = args.family
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header.split(","))
        for obj in objects:
            if family == "paths":
                writer.writerow([obj])
            elif family == "matchings":
                writer.writerow([obj.m, _compact([list(e) for e in obj.edges])])
            else:
                writer.writerow([eventree.paren(obj)])
        return 0
    for obj in objects:
        if family == "paths":
            line = _compact(obj) if args.format == "json" else obj
        elif family == "matchings":
            line = _compact(matching.matching_to_json(obj))
        else:
            line = _tree_json(obj) if args.format == "json" else eventree.paren(obj)
        print(line)
    if args.format == "text":
        print(f"count: {len(objects)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ParseError("--max-n must be at least 1")
    if args.max_n > VERIFY_MAX_N:
        raise DomainError(f"verify is limited to --max-n <= {VERIFY_MAX_N}")
    report = verify_mod.VerifyReport()
    results = verify_mod.iter_verify(args.max_n, seed=args.seed)
    if args.format == "json":
        # "overall" comes first in the object, so it is written whole at the end.
        report.checks.extend(results)
        print(_compact(report.to_json()))
    else:
        if args.format == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(["name", "scope", "passed", "detail"])
        for c in results:
            report.checks.append(c)
            if args.format == "csv":
                passed = "pass" if c.passed else "fail"
                writer.writerow([c.name, c.scope, passed, c.detail])
            else:
                line = f"{'PASS' if c.passed else 'FAIL'} {c.name} [{c.scope}]"
                if c.detail:
                    line += f": {c.detail}"
                print(line)
            # Each line is out as soon as its check has run.
            sys.stdout.flush()
        if args.format == "text":
            print(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return 0 if report.overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricatalan",
        description=(
            "Weighted lattice-path polynomials below x = 2y, the matching and"
            " even-tree families they count, and exhaustive cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table",
        help="print the polynomial table",
        description=(
            "The weighted path polynomials L(i, j) for 0 <= 2j <= i <= max-i."
            " json and csv stream cell by cell at any size; the text grid"
            " needs every cell at once and is limited to"
            f" --max-i <= {TEXT_TABLE_MAX_I}."
        ),
    )
    p_table.add_argument(
        "--max-i",
        type=int,
        default=8,
        help=f"largest column i (text format: at most {TEXT_TABLE_MAX_I})",
    )
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.set_defaults(func=cmd_table)

    p_map = sub.add_parser(
        "map",
        help="apply a bijection to one object",
        description=(
            "Apply one bijection to one encoded object.  matching-to-path and"
            " matching-to-tree take matchings of at most"
            f" {MAP_MAX_POINTS} points."
        ),
    )
    p_map.add_argument("kind", choices=MAP_KINDS)
    p_map.add_argument("value", help="encoded object, or - to read stdin")
    p_map.add_argument("--format", choices=("text", "json"), default="json")
    p_map.set_defaults(func=cmd_map)

    p_enum = sub.add_parser("enum", help="stream a family, one object per line")
    p_enum.add_argument("family", choices=("paths", "matchings", "trees"))
    p_enum.add_argument("--i", type=int, help="east steps / points")
    p_enum.add_argument("--j", type=int, help="north steps / edges")
    p_enum.add_argument("--edges", type=int, help="edge count for trees")
    p_enum.add_argument("--format", choices=("text", "json", "csv"), default="json")
    p_enum.set_defaults(func=cmd_enum)

    p_verify = sub.add_parser(
        "verify",
        help="run every identity suite and exit 0 only if all pass",
        description=(
            "Closed-form identities run for n = 1..max-n; brute-force family"
            " checks are capped at fixed desk scales"
            f" (paths i <= {verify_mod.PATH_ORACLE_MAX_I},"
            f" matchings i <= {verify_mod.MATCHING_MAX_I},"
            f" tree counts n <= {verify_mod.TREE_COUNT_MAX_N},"
            f" tree bijection n <= {verify_mod.TREE_BIJECTION_MAX_N})"
            " and report the range actually run.  --max-n is at most"
            f" {VERIFY_MAX_N}."
        ),
    )
    p_verify.add_argument(
        "--max-n", type=int, default=6, help=f"at most {VERIFY_MAX_N}"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at devnull, so the flush at exit cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): a normal stop, not a failure.
        _stdout_to_devnull()
        return 0


if __name__ == "__main__":
    sys.exit(main())
