"""Cross-checks between the closed formulas, the DP table, and both bijections.

Every check compares two independent routes to the same numbers.  A check
is a generator of counterexample witnesses: each string it yields names the
position or object where the routes disagree and the property that failed.
A check passes when it yields nothing; iter_verify yields each check's
result, with the first witness of a failing check, as soon as that check
has run, and run_verify collects them into one report.  An exception raised
while a check runs is that check's witness, so one crashing route fails its
check and the report is still complete.

Every table value a check reads comes from one shared pass of the column
DP over columns 0..2*max_n, so a run computes the DP once.  The pass is a
generator (_dp_pass) that keeps every cell with i <= min(2*max_n,
PATH_ORACLE_MAX_I), which the path oracle and the matching class counts
read, and L(2n, n), L(2n, n-1) and the sum of column 2n-1 for each n.  Two
build-once readers (_once) take it only as far as a check needs: cells()
stops at the kept cells' last column, and corners(), which the closed-form
checks read, goes on to column 2*max_n.  The pass and the matching table
are each built once, on first read inside a check; a build that fails
runs once too, and its exception, raised again to every reader, is the
witness of every check that reads it.  The four closed-form identities scale
with the requested max_n and compare those with a second route (a binomial
formula, the closed form, or another cell); the binomial formula
(lattice.catalan3_coeff) and the closed form (lattice.descent_poly) are
the same expression typed twice.  The tree counts read L(2n, n).
The brute-force families are capped at fixed desk scales
(they grow super-exponentially), and every check reports the range it
actually ran.  Each family is a map from each object to its statistic,
built once per run on its first read and shared by the checks that read
it: paths(i, j) maps each path to its weight exponent, trees(n) each even
tree with 2n edges to its r-index, and the matching table each cell's
members to their crossings.  The counting checks take the histogram of a
map's values, and the bijection checks fold every path once and unfold
every image once, reading both statistics from the maps, so each object's
statistic is computed once per run and no object goes through a bijection
twice.  No check writes state that another check reads.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import zip_longest

from . import eventree, lattice, matching
from .frozen import Record
from .poly import Poly, histogram_poly

PATH_ORACLE_MAX_I = 14
MATCHING_MAX_I = 12
TREE_COUNT_MAX_N = 8
TREE_BIJECTION_MAX_N = 7
RANDOM_TRIALS = 200

Witnesses = Iterator[str]
# (i, j) -> {path: weight exponent} for every path to (i, j).
Paths = Callable[[int, int], dict[str, int]]
# n -> {tree: r-index} for every even tree with 2n edges.
Trees = Callable[[int], dict[eventree.EvenTree, int]]
# () -> {(i, j): {member: crossings}} for every cell with i <= the matching cap.
Table = Callable[[], dict[tuple[int, int], dict[matching.PartialMatching, int]]]
# () -> {(i, j): L(i, j)} for every cell with i <= the path oracle's cap.
Cells = Callable[[], dict[tuple[int, int], Poly]]
# () -> (L(2n, n), L(2n, n-1), sum of column 2n-1) for n = 1..max_n.
Corners = Callable[[], list[tuple[Poly, Poly, Poly]]]


class CheckResult(Record):
    """One check: its name, the range it ran, and its first witness, if any.
    Mutable, so compared by value but not hashable."""

    def __init__(self, name: str, scope: str, passed: bool, detail: str = "") -> None:
        self.name = name
        self.scope = scope
        self.passed = passed
        self.detail = detail


class VerifyReport(Record):
    """Every check's result, in the order run; overall passes when all do.
    Mutable, like CheckResult."""

    def __init__(self, checks: list[CheckResult] | None = None) -> None:
        self.checks = [] if checks is None else checks

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        """{"overall": ..., "checks": [...]}, each check's fields in __init__ order."""
        return {"overall": self.overall, "checks": [dict(vars(c)) for c in self.checks]}


def _valid_positions(max_i: int):
    for i in range(max_i + 1):
        for j in range(i // 2 + 1):
            yield i, j


def _show_matching(m: matching.PartialMatching) -> str:
    return f"matching {matching.matching_to_json(m)}"


def _show_tree(t: eventree.EvenTree) -> str:
    return f"tree {eventree.paren(t)}"


def _family(objects: Iterable, statistic: Callable) -> dict:
    """{object: statistic(object)} over an enumerated family.  A family that
    lists an object twice would lose the repeat in the map, so it raises."""
    objects = list(objects)
    family = {obj: statistic(obj) for obj in objects}
    if len(family) != len(objects):
        raise ValueError("an object is enumerated twice")
    return family


def _check_path_oracle(max_i: int, paths: Paths, cells: Cells) -> Witnesses:
    dp_cells = cells()
    for i, j in _valid_positions(max_i):
        got = histogram_poly(paths(i, j).values())
        want = dp_cells[i, j]
        if got != want:
            yield f"(i,j)=({i},{j}): enumeration gives {got}, table gives {want}"


def _dp_pass(max_n: int, max_i: int) -> Iterator:
    """One pass of the column DP over columns 0..2*max_n, yielding twice: the
    cells with i <= max_i once column max_i is read, so the first check does
    not wait for the whole pass, and (L(2n, n), L(2n, n-1), sum of column
    2n-1) for n = 1..max_n when the pass ends.  Apart from the kept cells,
    it holds two columns at a time."""
    cells: dict[tuple[int, int], Poly] = {}
    corners: list[tuple[Poly, Poly, Poly]] = []
    column_sum = Poly.zero()
    for i, column in enumerate(lattice.lattice_columns(2 * max_n)):
        if i <= max_i:
            for j, coeffs in enumerate(column):
                cells[i, j] = Poly._trusted(coeffs)
        if i % 2:
            sums = map(sum, zip_longest(*column, fillvalue=0))
            column_sum = Poly._trusted(tuple(sums))
        elif i:
            n = i // 2
            on_line, below = Poly._trusted(column[n]), Poly._trusted(column[n - 1])
            corners.append((on_line, below, column_sum))
        if i == max_i:
            yield cells
    yield corners


def _once(build: Callable) -> Callable:
    """A reader that runs build on its first call and gives every call the
    value built, or raises again the exception that the build raised."""

    @cache
    def outcome() -> tuple:
        try:
            return build(), None
        except Exception as exc:
            return None, exc

    def read():
        value, error = outcome()
        if error is not None:
            raise error
        return value

    return read


def _check_coeff_formula(corners: Corners) -> Witnesses:
    for n, (p, _, _) in enumerate(corners(), 1):
        if p.degree() != n - 1:
            yield f"n={n}: table degree {p.degree()} != {n - 1}"
        for k in range(n):
            formula = lattice.catalan3_coeff(n, k)
            if formula != p.coefficient(k):
                yield (
                    f"n={n} k={k}: formula gives {formula},"
                    f" table coefficient is {p.coefficient(k)}"
                )
        total = lattice.catalan3(n)
        if p.eval_at_one() != total:
            yield f"n={n}: coefficient sum {p.eval_at_one()} != {total}"


def _check_descent(corners: Corners) -> Witnesses:
    for n, (table, _, _) in enumerate(corners(), 1):
        closed = lattice.descent_poly(n + 1)
        if closed != table:
            yield f"n={n}: closed form {closed} != table {table}"


def _check_row_sum(corners: Corners) -> Witnesses:
    for n, (want, _, total) in enumerate(corners(), 1):
        if total != want:
            yield f"n={n}: column sum {total} != corner value {want}"


def _check_collapse(corners: Corners) -> Witnesses:
    for n, (on_line, below, _) in enumerate(corners(), 1):
        if on_line != below:
            yield f"n={n}: L(2n,n)={on_line} != L(2n,n-1)={below}"


def _check_matching_counts(table: Table, cells: Cells) -> Witnesses:
    dp_cells = cells()
    for (i, j), members in table().items():
        got = histogram_poly(members.values())
        want = dp_cells[i, j]
        if got != want:
            yield f"(i,j)=({i},{j}): class polynomial {got} != table {want}"


def _bijection(
    where: str,
    paths: dict[str, int],
    members: dict,
    fold: Callable,
    unfold: Callable,
    statistic: Callable,
    show: Callable,
) -> Witnesses:
    """Witnesses against fold being a bijection from paths onto members that
    carries the weight exponent to statistic, with unfold as its inverse.
    paths maps each path to its weight exponent and members each member to
    its statistic; statistic is computed only for an image that is no member.

    Each path is folded once and each image unfolded once.  The other
    roundtrip, fold(unfold(member)) == member, is not run: with the images
    distinct, equal to the members as a set and unfolding to their paths,
    every member is fold(p) for a path p that it unfolds to.
    """
    images = [fold(p) for p in paths]
    image_set = set(images)
    if len(image_set) != len(images):
        yield f"{where}: duplicate images under path folding"
    for (p, weight), image in zip(paths.items(), images):
        value = members.get(image)
        if (statistic(image) if value is None else value) != weight:
            yield f"path {p!r}: the statistic of {show(image)} != weight exponent"
    if image_set != members.keys():
        yield f"{where}: images differ from the enumerated family"
    for p, image in zip(paths, images):
        if unfold(image) != p:
            yield f"path {p!r}: unfolding {show(image)} does not give the path back"


def _check_matching_bijection(table: Table, paths: Paths) -> Witnesses:
    for (i, j), members in table().items():
        yield from _bijection(
            f"(i,j)=({i},{j})",
            paths(i, j),
            members,
            matching.path_to_matching,
            matching.matching_to_path,
            matching.crossings,
            _show_matching,
        )


def _check_tree_counts(max_n: int, trees: Trees, corners: Corners) -> Witnesses:
    for n in range(1, max_n + 1):
        got = histogram_poly(trees(n).values())
        want = corners()[n - 1][0]
        if got != want:
            yield f"n={n}: r-index polynomial {got} != table {want}"


def _check_tree_bijection(max_n: int, paths: Paths, trees: Trees) -> Witnesses:
    for n in range(1, max_n + 1):
        yield from _bijection(
            f"n={n}",
            paths(2 * n, n),
            trees(n),
            eventree.path_to_tree,
            eventree.tree_to_path,
            eventree.r_index,
            _show_tree,
        )
    # Distinctness must hold at every intermediate position as well; the
    # on-line cells (2n, n) were folded and checked just above.
    for i, j in _valid_positions(2 * max_n):
        if i == 2 * j and j >= 1:
            continue
        images = [eventree.path_to_tree(p) for p in paths(i, j)]
        if len(set(images)) != len(images):
            yield f"(i,j)=({i},{j}): duplicate intermediate trees"


def _random_matching(rng: random.Random, max_points: int) -> matching.PartialMatching:
    m = rng.randrange(0, max_points + 1)
    pair_count = rng.randrange(0, m // 2 + 1)
    chosen = rng.sample(range(1, m + 1), 2 * pair_count)
    rng.shuffle(chosen)
    edges = tuple(
        (min(a, b), max(a, b)) for a, b in zip(chosen[0::2], chosen[1::2])
    )
    return matching.PartialMatching(m, edges)


def _random_path(rng: random.Random, max_east: int) -> str:
    steps = []
    x = y = 0
    while x < max_east:
        if x >= 2 * (y + 1) and rng.random() < 0.5:
            steps.append(lattice.NORTH)
            y += 1
        else:
            steps.append(lattice.EAST)
            x += 1
    return "".join(steps)


def _check_random_shift_lift(seed: int) -> Witnesses:
    rng = random.Random(seed)
    for _ in range(RANDOM_TRIALS):
        # Shift never moves a point inside an edge, on any matching at all.
        loose = _random_matching(rng, 12)
        if matching.crossings(matching.shift(loose)) != matching.crossings(loose):
            yield f"shift changed crossings on {matching.matching_to_json(loose)}"
        # The lift deltas are claims about generated (in-class) states, so
        # sample those by folding a random valid path.  Its east-step count
        # sets the parity of the isolated count, so it is drawn per sample:
        # a fixed count would test only one of the two lifts.
        member = matching.path_to_matching(_random_path(rng, rng.randrange(2, 13)))
        before = matching.crossings(member)
        iso = len(member.isolated())
        if iso >= 2:
            delta = matching.crossings(matching.lift(member)) - before
            expected = 1 if iso % 2 == 1 else 0
            if delta != expected:
                yield (
                    f"lift changed crossings by {delta} (expected {expected})"
                    f" on {matching.matching_to_json(member)}"
                )


def iter_verify(max_n: int, seed: int = 0) -> Iterator[CheckResult]:
    """Run every identity suite, yielding each check's result as soon as it
    has run; ranges derive from max_n up to the fixed caps.  max_n is checked
    at call time; the checks run as the results are consumed."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    return _results(_checks(max_n, seed))


def run_verify(max_n: int, seed: int = 0) -> VerifyReport:
    """Run every identity suite and collect the results of iter_verify."""
    return VerifyReport(list(iter_verify(max_n, seed)))


def _checks(max_n: int, seed: int) -> list[tuple[str, str, Witnesses]]:
    """(name, scope, witnesses) of every check, in report order; nothing runs
    until a check's witnesses are read."""
    path_i = min(2 * max_n, PATH_ORACLE_MAX_I)
    matching_i = min(2 * max_n, MATCHING_MAX_I)
    count_n = min(max_n, TREE_COUNT_MAX_N)
    bijection_n = min(max_n, TREE_BIJECTION_MAX_N)

    # Each built on first use inside a check, and shared by the checks that
    # read it; the values built are never mutated, and live only as long as
    # the run.  The DP pass and the matching table are read through _once,
    # so a failing build runs once and its exception is the witness of every
    # check that reads it.  The pass is one generator with two readers:
    # cells() stops it at column path_i, and corners() reads on to column
    # 2*max_n.  Each family maps its objects to their statistic: paths per
    # cell, trees per edge count, and the matching table per cell.
    paths = cache(
        lambda i, j: _family(lattice.enumerate_paths(i, j), lattice.weight_exponent)
    )
    trees = cache(
        lambda n: _family(eventree.enumerate_even_trees(2 * n), eventree.r_index)
    )
    dp = _dp_pass(max_n, path_i)
    cells = _once(lambda: next(dp))

    def read_corners() -> list[tuple[Poly, Poly, Poly]]:
        cells()
        return next(dp)

    corners = _once(read_corners)
    table = _once(
        lambda: {
            (i, j): _family(matching.enumerate_matchings(i, j), matching.crossings)
            for i, j in _valid_positions(matching_i)
        }
    )

    closed = f"n = 1..{max_n}"
    matchings = f"i <= {matching_i}"
    return [
        (
            "path-enumeration-vs-table",
            f"i <= {path_i}",
            _check_path_oracle(path_i, paths, cells),
        ),
        ("corner-coefficient-formula", closed, _check_coeff_formula(corners)),
        ("descent-closed-form", closed, _check_descent(corners)),
        ("odd-column-row-sum", closed, _check_row_sum(corners)),
        ("on-line-collapse", closed, _check_collapse(corners)),
        (
            "matching-class-counts",
            matchings,
            _check_matching_counts(table, cells),
        ),
        (
            "matching-bijection",
            matchings,
            _check_matching_bijection(table, paths),
        ),
        (
            "even-tree-counts",
            f"n = 1..{count_n}",
            _check_tree_counts(count_n, trees, corners),
        ),
        (
            "even-tree-bijection",
            f"n = 1..{bijection_n}",
            _check_tree_bijection(bijection_n, paths, trees),
        ),
        (
            "shift-lift-crossing-deltas",
            f"{RANDOM_TRIALS} random samples, seed {seed}",
            _check_random_shift_lift(seed),
        ),
    ]


def _results(checks: list[tuple[str, str, Witnesses]]) -> Iterator[CheckResult]:
    for name, scope, witnesses in checks:
        try:
            witness = next(witnesses, None)
        except Exception as exc:
            # The code under check failed on an input it must accept: that
            # is this check's counterexample, and the other checks still run.
            witness = f"raised {type(exc).__name__}: {exc}"
        yield CheckResult(name, scope, witness is None, witness or "")
