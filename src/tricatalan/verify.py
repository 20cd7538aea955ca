"""Cross-checks between the closed formulas, the DP table, and both bijections.

Every check compares two independent routes to the same numbers.  A check
is a generator of counterexample witnesses: each string it yields names the
position or object where the routes disagree and the property that failed.
A check passes when it yields nothing; run_verify reports the first witness
of a failing check and stops that check there.  An exception raised while a
check runs is that check's witness, so one crashing route fails its check
and the report is still complete.  Closed-form identities scale
with the requested max_n; the brute-force families are capped at fixed desk
scales (they grow super-exponentially), and every check reports the range it
actually ran.  The bijection checks fold every path once and unfold every
image once; no object goes through a bijection twice.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator, Sequence
from functools import cache

from . import eventree, lattice, matching
from .frozen import Record
from .poly import Poly, histogram_poly

PATH_ORACLE_MAX_I = 14
MATCHING_MAX_I = 12
TREE_COUNT_MAX_N = 8
TREE_BIJECTION_MAX_N = 7
RANDOM_TRIALS = 200

Witnesses = Iterator[str]


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


def _check_path_oracle(max_i: int) -> Witnesses:
    for i, j in _valid_positions(max_i):
        paths = lattice.enumerate_paths(i, j)
        got = histogram_poly(map(lattice.weight_exponent, paths))
        want = lattice.lattice_poly(i, j)
        if got != want:
            yield f"(i,j)=({i},{j}): enumeration gives {got}, table gives {want}"


def _check_coeff_formula(max_n: int) -> Witnesses:
    for n in range(1, max_n + 1):
        p = lattice.lattice_poly(2 * n, n)
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


def _check_descent(max_n: int) -> Witnesses:
    for n in range(1, max_n + 1):
        closed = lattice.descent_poly(n + 1)
        table = lattice.lattice_poly(2 * n, n)
        if closed != table:
            yield f"n={n}: closed form {closed} != table {table}"


def _check_row_sum(max_n: int) -> Witnesses:
    for n in range(1, max_n + 1):
        total = Poly.zero()
        for j in range(n):
            total = total + lattice.lattice_poly(2 * n - 1, j)
        want = lattice.lattice_poly(2 * n, n)
        if total != want:
            yield f"n={n}: column sum {total} != corner value {want}"


def _check_collapse(max_n: int) -> Witnesses:
    for n in range(1, max_n + 1):
        on_line = lattice.lattice_poly(2 * n, n)
        below = lattice.lattice_poly(2 * n, n - 1)
        if on_line != below:
            yield f"n={n}: L(2n,n)={on_line} != L(2n,n-1)={below}"


def _check_matching_counts(table: Callable[[], dict]) -> Witnesses:
    for (i, j), members in table().items():
        got = histogram_poly(map(matching.crossings, members))
        want = lattice.lattice_poly(i, j)
        if got != want:
            yield f"(i,j)=({i},{j}): class polynomial {got} != table {want}"


def _bijection(
    where: str,
    paths: Sequence[str],
    members: Sequence,
    fold: Callable,
    unfold: Callable,
    statistic: Callable,
    show: Callable,
) -> Witnesses:
    """Witnesses against fold being a bijection from paths onto members that
    carries the weight exponent to statistic, with unfold as its inverse.

    Each path is folded once and each image unfolded once.  The other
    roundtrip, fold(unfold(member)) == member, is not run: with the images
    distinct, equal to the members as a set and unfolding to their paths,
    every member is fold(p) for a path p that it unfolds to.
    """
    images = [fold(p) for p in paths]
    image_set = set(images)
    if len(image_set) != len(images):
        yield f"{where}: duplicate images under path folding"
    for p, image in zip(paths, images):
        if statistic(image) != lattice.weight_exponent(p):
            yield f"path {p!r}: the statistic of {show(image)} != weight exponent"
    if image_set != set(members):
        yield f"{where}: images differ from the enumerated family"
    for p, image in zip(paths, images):
        if unfold(image) != p:
            yield f"path {p!r}: unfolding {show(image)} does not give the path back"


def _check_matching_bijection(table: Callable[[], dict]) -> Witnesses:
    for (i, j), members in table().items():
        yield from _bijection(
            f"(i,j)=({i},{j})",
            lattice.enumerate_paths(i, j),
            members,
            matching.path_to_matching,
            matching.matching_to_path,
            matching.crossings,
            _show_matching,
        )


def _check_tree_counts(max_n: int) -> Witnesses:
    for n in range(1, max_n + 1):
        got = eventree.r_index_poly(n)
        want = lattice.lattice_poly(2 * n, n)
        if got != want:
            yield f"n={n}: r-index polynomial {got} != table {want}"


def _check_tree_bijection(max_n: int) -> Witnesses:
    for n in range(1, max_n + 1):
        yield from _bijection(
            f"n={n}",
            lattice.enumerate_paths(2 * n, n),
            eventree.enumerate_even_trees(2 * n),
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
        images = [eventree.path_to_tree(p) for p in lattice.enumerate_paths(i, j)]
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
        # sample those by folding a random valid path.
        member = matching.path_to_matching(_random_path(rng, 12))
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


def run_verify(max_n: int, seed: int = 0) -> VerifyReport:
    """Run every identity suite; ranges derive from max_n up to the fixed caps."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    path_i = min(2 * max_n, PATH_ORACLE_MAX_I)
    matching_i = min(2 * max_n, MATCHING_MAX_I)
    count_n = min(max_n, TREE_COUNT_MAX_N)
    bijection_n = min(max_n, TREE_BIJECTION_MAX_N)

    @cache
    def table() -> dict:
        # Built on first use inside a matching check, so an exception here
        # is that check's witness; both checks share one successful build.
        return {
            (i, j): matching.enumerate_matchings(i, j)
            for i, j in _valid_positions(matching_i)
        }

    closed = f"n = 1..{max_n}"
    matchings = f"i <= {matching_i}"
    checks = [
        ("path-enumeration-vs-table", f"i <= {path_i}", _check_path_oracle(path_i)),
        ("corner-coefficient-formula", closed, _check_coeff_formula(max_n)),
        ("descent-closed-form", closed, _check_descent(max_n)),
        ("odd-column-row-sum", closed, _check_row_sum(max_n)),
        ("on-line-collapse", closed, _check_collapse(max_n)),
        ("matching-class-counts", matchings, _check_matching_counts(table)),
        ("matching-bijection", matchings, _check_matching_bijection(table)),
        ("even-tree-counts", f"n = 1..{count_n}", _check_tree_counts(count_n)),
        (
            "even-tree-bijection",
            f"n = 1..{bijection_n}",
            _check_tree_bijection(bijection_n),
        ),
        (
            "shift-lift-crossing-deltas",
            f"{RANDOM_TRIALS} random samples, seed {seed}",
            _check_random_shift_lift(seed),
        ),
    ]
    report = VerifyReport()
    for name, scope, witnesses in checks:
        try:
            witness = next(witnesses, None)
        except Exception as exc:
            # The code under check failed on an input it must accept: that
            # is this check's counterexample, and the other checks still run.
            witness = f"raised {type(exc).__name__}: {exc}"
        report.checks.append(CheckResult(name, scope, witness is None, witness or ""))
    return report
