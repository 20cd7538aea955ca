"""Lattice paths weakly below the line x = 2y and their weight polynomials.

A path is a string over {E, N} read from the origin: E moves (1,0), N moves
(0,1).  After every step the current point (x, y) must satisfy x >= 2y, so a
north step from (x, y) is legal only when x >= 2(y + 1).  A north step taken
at odd x carries weight x (the formal variable); all other steps have weight
1.  lattice_poly(i, j) is the weighted count of all such paths ending at
(i, j), computed by dynamic programming; enumerate_paths lists the paths
explicitly and is kept independent of the DP so each can check the other.

The dynamic program runs column by column (_columns) and holds only the
previous column and the one being built, as plain coefficient tuples, so
its memory is bounded by two columns and it uses no recursion and no cache.
lattice_poly, lattice_columns and lattice_table all read from it.

Every odd-column cell L(2m+1, j) is a palindrome of degree j: x >= 2y binds
only at the end of each column pair (2s, 2s+1), so swapping the north-step
counts of columns 2s and 2s+1 turns weight k into j - k.  The DP does not
use this; the table writers in cli do.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb
from operator import add

from .errors import ParseError
from .poly import Poly

EAST = "E"
NORTH = "N"


def parse_path(text: str) -> str:
    """Validate a path string, naming the first offending step (0-based)."""
    x = y = 0
    for k, ch in enumerate(text):
        if ch == EAST:
            x += 1
        elif ch == NORTH and x >= 2 * (y + 1):
            y += 1
        else:
            raise _step_error(ch, k)
    return text


def _step_error(step: object, index: int) -> ParseError:
    """parse_path's error for a bad step at index: a step other than E or N,
    or else a north step from a point with x < 2(y + 1), which leaves the
    region.  The folds, which check their steps as they go, raise it too."""
    if step != EAST and step != NORTH:
        return ParseError(f"invalid step {step!r} at index {index}: expected 'E' or 'N'")
    return ParseError(f"step at index {index} moves above the line x = 2y")


def path_endpoint(path: str) -> tuple[int, int]:
    """Endpoint (i, j) of a path: i east steps, j north steps."""
    return path.count(EAST), path.count(NORTH)


def weight_exponent(path: str) -> int:
    """Number of north steps taken at odd x, i.e. the exponent of the path weight."""
    x = 0
    exponent = 0
    for ch in path:
        if ch == EAST:
            x += 1
        elif x % 2 == 1:
            exponent += 1
    return exponent


def enumerate_paths(i: int, j: int) -> list[str]:
    """All valid paths from the origin to (i, j), in lexicographic order (E < N).

    Returns the empty list when (i, j) lies strictly above the line or has a
    negative coordinate.
    """
    if i < 0 or j < 0 or i < 2 * j:
        return []
    found: list[str] = []
    steps: list[str] = []
    x = y = 0
    # Depth first, east before north, with steps as the explicit stack.
    while True:
        if x == i and y == j:
            found.append("".join(steps))
        if x < i:
            steps.append(EAST)
            x += 1
            continue
        if y < j and x >= 2 * (y + 1):
            steps.append(NORTH)
            y += 1
            continue
        # Back up to the last east step that can be turned into a north step.
        while steps:
            if steps.pop() == NORTH:
                y -= 1
                continue
            x -= 1
            if y < j and x >= 2 * (y + 1):
                steps.append(NORTH)
                y += 1
                break
        else:
            return found


def _columns(max_i: int, max_j: int) -> Iterator[list[tuple[int, ...]]]:
    """Columns i = 0..max_i: coefficient tuples of L(i, j), j <= min(i // 2, max_j).

    Recurrence over the last step: a path into (i, j) arrives by E from
    (i-1, j) or by N from (i, j-1), the latter weighted by x exactly when i
    is odd.  Cells above the line are zero, so (i-1, j) is missing from the
    previous column when 2j = i.  Each yielded list is new and never mutated.
    """
    column = [(1,)]
    yield column
    for i in range(1, max_i + 1):
        previous, column = column, []
        cell: tuple[int, ...] = ()
        for j in range(min(i // 2, max_j) + 1):
            left = previous[j] if j < len(previous) else ()
            below = (0,) + cell if i % 2 and cell else cell
            if len(left) < len(below):
                left, below = below, left
            cell = (*map(add, left, below), *left[len(below):])
            column.append(cell)
        yield column


def lattice_poly(i: int, j: int) -> Poly:
    """Weighted count of paths from the origin to (i, j).

    Zero for positions strictly above the line (or negative), so callers may
    sum over a rectangle freely.  Runs the column DP up to column i, rows
    0..j only, which are all that (i, j) depends on.
    """
    if i < 0 or j < 0 or i < 2 * j:
        return Poly.zero()
    for column in _columns(i, j):
        pass
    return Poly._trusted(column[j])


def _exact_div(numerator: int, divisor: int, what: str) -> int:
    q, r = divmod(numerator, divisor)
    if r:
        raise ArithmeticError(f"{what}: division by {divisor} is not exact")
    return q


def catalan3(n: int) -> int:
    """3-Catalan number: C(3n, n) / (2n + 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _exact_div(comb(3 * n, n), 2 * n + 1, f"catalan3({n})")


def catalan3_coeff(n: int, k: int) -> int:
    """Refinement of the 3-Catalan numbers: C(n-1+k, n-1) * C(2n-k, n+1) / n.

    Equals the coefficient of x^k in lattice_poly(2n, n) for 0 <= k <= n-1,
    and is the same formula as descent_poly(n + 1)'s coefficient, typed
    separately; verify's corner-coefficient-formula and descent-closed-form
    checks therefore compare the table's corners with one formula twice.

    The formula follows from the even-tree grammar, with q marking the
    r-index, by Lagrange inversion.  Its series satisfy P = F*G,
    P = 1/((1 - zP)(1 - qzP)) and F = 1/(1 - zP).  Put W = zP: then
    W = z*phi(W) with phi(w) = 1/((1 - w)(1 - qw)), and F = 1/(1 - W), so
    [z^n]F = (1/n) [w^(n-1)] (1 - w)^-2 phi(w)^n
           = (1/n) [w^(n-1)] (1 - w)^-(n+2) (1 - qw)^-n
           = (1/n) sum_k C(2n-k, n+1) C(n-1+k, n-1) q^k,
    taking q^k from (1 - qw)^-n and w^(n-1-k) from (1 - w)^-(n+2).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in 0..{n - 1}, got {k}")
    return _exact_div(
        comb(n - 1 + k, n - 1) * comb(2 * n - k, n + 1), n, f"catalan3_coeff({n},{k})"
    )


def descent_poly(n: int) -> Poly:
    """Closed binomial formula for the on-line weight distribution.

    descent_poly(n) has coefficient C(n-2+k, n-2) * C(2n-2-k, n) / (n - 1)
    at x^k for 0 <= k <= n-2; it equals lattice_poly(2(n-1), n-1).  That
    coefficient is catalan3_coeff(n - 1, k), the same formula transcribed
    twice, so descent-closed-form and corner-coefficient-formula in verify
    are one closed form read twice, not two.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    coeffs = [
        _exact_div(
            comb(n - 2 + k, n - 2) * comb(2 * n - 2 - k, n), n - 1, f"descent_poly({n})"
        )
        for k in range(n - 1)
    ]
    return Poly(tuple(coeffs))


def lattice_columns(max_i: int) -> Iterator[list[tuple[int, ...]]]:
    """Stream the table one column at a time, for i = 0..max_i.

    Column i lists the coefficient tuples of lattice_poly(i, j) for
    j = 0..i//2 (ascending powers, no trailing zeros).  max_i is checked at
    call time; columns are built as they are consumed.
    """
    if max_i < 0:
        raise ValueError("max_i must be nonnegative")
    return _columns(max_i, max_i)


def lattice_table(max_i: int) -> Iterator[tuple[int, int, Poly]]:
    """Stream all (i, j, lattice_poly(i, j)) with 0 <= i <= max_i, 0 <= 2j <= i.

    Cells come column by column, i ascending and then j ascending; max_i is
    checked at call time.
    """
    return (
        (i, j, Poly._trusted(coeffs))
        for i, column in enumerate(lattice_columns(max_i))
        for j, coeffs in enumerate(column)
    )
