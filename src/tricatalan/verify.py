"""Cross-checks between the closed formulas, the DP table, and both bijections.

Every check compares two independent routes to the same numbers and reports
a counterexample witness on failure.  Closed-form identities scale with the
requested max_n; the brute-force families are capped at fixed desk scales
(they grow super-exponentially), and every check reports the range it
actually ran.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import eventree, lattice, matching
from .poly import Poly, histogram_poly

PATH_ORACLE_MAX_I = 14
MATCHING_MAX_I = 12
TREE_COUNT_MAX_N = 8
TREE_BIJECTION_MAX_N = 7
RANDOM_TRIALS = 200


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "overall": self.overall,
            "checks": [
                {
                    "name": c.name,
                    "scope": c.scope,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _result(name: str, scope: str, witness: str | None) -> CheckResult:
    return CheckResult(name, scope, witness is None, witness or "")


def _valid_positions(max_i: int):
    for i in range(max_i + 1):
        for j in range(i // 2 + 1):
            yield i, j


def _check_path_oracle(max_i: int) -> CheckResult:
    witness = None
    for i, j in _valid_positions(max_i):
        paths = lattice.enumerate_paths(i, j)
        got = histogram_poly(map(lattice.weight_exponent, paths))
        want = lattice.lattice_poly(i, j)
        if got != want:
            witness = f"(i,j)=({i},{j}): enumeration gives {got}, table gives {want}"
            break
    return _result("path-enumeration-vs-table", f"i <= {max_i}", witness)


def _check_coeff_formula(max_n: int) -> CheckResult:
    witness = None
    for n in range(1, max_n + 1):
        p = lattice.lattice_poly(2 * n, n)
        if p.degree() != n - 1:
            witness = f"n={n}: table degree {p.degree()} != {n - 1}"
            break
        for k in range(n):
            formula = lattice.catalan3_coeff(n, k)
            if formula != p.coefficient(k):
                witness = (
                    f"n={n} k={k}: formula gives {formula},"
                    f" table coefficient is {p.coefficient(k)}"
                )
                break
        else:
            total = lattice.catalan3(n)
            if p.eval_at_one() != total:
                witness = f"n={n}: coefficient sum {p.eval_at_one()} != {total}"
        if witness:
            break
    return _result("corner-coefficient-formula", f"n = 1..{max_n}", witness)


def _check_descent(max_n: int) -> CheckResult:
    witness = None
    for n in range(1, max_n + 1):
        closed = lattice.descent_poly(n + 1)
        table = lattice.lattice_poly(2 * n, n)
        if closed != table:
            witness = f"n={n}: closed form {closed} != table {table}"
            break
    return _result("descent-closed-form", f"n = 1..{max_n}", witness)


def _check_row_sum(max_n: int) -> CheckResult:
    witness = None
    for n in range(1, max_n + 1):
        total = Poly.zero()
        for j in range(n):
            total = total + lattice.lattice_poly(2 * n - 1, j)
        want = lattice.lattice_poly(2 * n, n)
        if total != want:
            witness = f"n={n}: column sum {total} != corner value {want}"
            break
    return _result("odd-column-row-sum", f"n = 1..{max_n}", witness)


def _check_collapse(max_n: int) -> CheckResult:
    witness = None
    for n in range(1, max_n + 1):
        on_line = lattice.lattice_poly(2 * n, n)
        below = lattice.lattice_poly(2 * n, n - 1)
        if on_line != below:
            witness = f"n={n}: L(2n,n)={on_line} != L(2n,n-1)={below}"
            break
    return _result("on-line-collapse", f"n = 1..{max_n}", witness)


def _check_matching_counts(max_i: int, table: dict) -> CheckResult:
    witness = None
    for (i, j), members in table.items():
        got = histogram_poly(map(matching.crossings, members))
        want = lattice.lattice_poly(i, j)
        if got != want:
            witness = f"(i,j)=({i},{j}): class polynomial {got} != table {want}"
            break
    return _result("matching-class-counts", f"i <= {max_i}", witness)


def _check_matching_bijection(max_i: int, table: dict) -> CheckResult:
    witness = None
    for (i, j), members in table.items():
        paths = lattice.enumerate_paths(i, j)
        images = [matching.path_to_matching(p) for p in paths]
        if len(set(images)) != len(images):
            witness = f"(i,j)=({i},{j}): duplicate images under path folding"
            break
        bad = next(
            (
                (p, m)
                for p, m in zip(paths, images)
                if matching.crossings(m) != lattice.weight_exponent(p)
            ),
            None,
        )
        if bad:
            witness = f"path {bad[0]!r}: crossings != weight exponent"
            break
        if set(images) != set(members):
            witness = f"(i,j)=({i},{j}): images differ from the enumerated class"
            break
        for p, m in zip(paths, images):
            if matching.matching_to_path(m) != p:
                witness = f"path {p!r}: reverse construction is not inverse"
                break
        else:
            for m in members:
                if matching.path_to_matching(matching.matching_to_path(m)) != m:
                    witness = f"matching {matching.matching_to_json(m)}: roundtrip failed"
                    break
        if witness:
            break
    return _result("matching-bijection", f"i <= {max_i}", witness)


def _check_tree_counts(max_n: int) -> CheckResult:
    witness = None
    for n in range(1, max_n + 1):
        got = eventree.r_index_poly(n)
        want = lattice.lattice_poly(2 * n, n)
        if got != want:
            witness = f"n={n}: r-index polynomial {got} != table {want}"
            break
    return _result("even-tree-counts", f"n = 1..{max_n}", witness)


def _check_tree_bijection(max_n: int) -> CheckResult:
    witness = None
    for n in range(1, max_n + 1):
        paths = lattice.enumerate_paths(2 * n, n)
        images = [eventree.path_to_tree(p) for p in paths]
        if len(set(images)) != len(images):
            witness = f"n={n}: duplicate trees at (2n,n)"
            break
        bad = next(
            (
                p
                for p, t in zip(paths, images)
                if eventree.r_index(t) != lattice.weight_exponent(p)
            ),
            None,
        )
        if bad:
            witness = f"path {bad!r}: r-index != weight exponent"
            break
        if set(images) != set(eventree.enumerate_even_trees(2 * n)):
            witness = f"n={n}: images differ from the enumerated trees"
            break
        for p, t in zip(paths, images):
            if eventree.tree_to_path(t) != p:
                witness = f"path {p!r}: tree unstepping is not inverse"
                break
        else:
            for t in eventree.enumerate_even_trees(2 * n):
                if eventree.path_to_tree(eventree.tree_to_path(t)) != t:
                    witness = f"tree {eventree.paren(t)}: roundtrip failed"
                    break
        if witness:
            break
    if witness is None:
        # Distinctness must hold at every intermediate position as well.
        for i, j in _valid_positions(2 * max_n):
            images = [eventree.path_to_tree(p) for p in lattice.enumerate_paths(i, j)]
            if len(set(images)) != len(images):
                witness = f"(i,j)=({i},{j}): duplicate intermediate trees"
                break
    return _result("even-tree-bijection", f"n = 1..{max_n}", witness)


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


def _check_random_shift_lift(seed: int, trials: int = RANDOM_TRIALS) -> CheckResult:
    rng = random.Random(seed)
    witness = None
    for _ in range(trials):
        # Shift never moves a point inside an edge, on any matching at all.
        loose = _random_matching(rng, 12)
        if matching.crossings(matching.shift(loose)) != matching.crossings(loose):
            witness = f"shift changed crossings on {matching.matching_to_json(loose)}"
            break
        # The lift deltas are claims about generated (in-class) states, so
        # sample those by folding a random valid path.
        member = matching.path_to_matching(_random_path(rng, 12))
        before = matching.crossings(member)
        iso = len(member.isolated())
        if iso >= 2:
            delta = matching.crossings(matching.lift(member)) - before
            expected = 1 if iso % 2 == 1 else 0
            if delta != expected:
                witness = (
                    f"lift changed crossings by {delta} (expected {expected})"
                    f" on {matching.matching_to_json(member)}"
                )
                break
    return _result(
        "shift-lift-crossing-deltas", f"{trials} random samples, seed {seed}", witness
    )


def run_verify(max_n: int, seed: int = 0) -> VerifyReport:
    """Run every identity suite; ranges derive from max_n up to the fixed caps."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    report = VerifyReport()
    report.checks.append(_check_path_oracle(min(2 * max_n, PATH_ORACLE_MAX_I)))
    report.checks.append(_check_coeff_formula(max_n))
    report.checks.append(_check_descent(max_n))
    report.checks.append(_check_row_sum(max_n))
    report.checks.append(_check_collapse(max_n))
    matching_max_i = min(2 * max_n, MATCHING_MAX_I)
    table = {
        (i, j): matching.enumerate_matchings(i, j)
        for i, j in _valid_positions(matching_max_i)
    }
    report.checks.append(_check_matching_counts(matching_max_i, table))
    report.checks.append(_check_matching_bijection(matching_max_i, table))
    report.checks.append(_check_tree_counts(min(max_n, TREE_COUNT_MAX_N)))
    report.checks.append(_check_tree_bijection(min(max_n, TREE_BIJECTION_MAX_N)))
    report.checks.append(_check_random_shift_lift(seed))
    return report
