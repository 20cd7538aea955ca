"""Lattice paths weakly below the line x = 2y and their weight polynomials.

A path is a string over {E, N} read from the origin: E moves (1,0), N moves
(0,1).  After every step the current point (x, y) must satisfy x >= 2y, so a
north step from (x, y) is legal only when x >= 2(y + 1).  A north step taken
at odd x carries weight x (the formal variable); all other steps have weight
1.  L(i, j) is the weighted count of all such paths ending at (i, j).  Three
routes compute it and share no code: lattice_poly reads one cell from a
closed form, the column DP builds whole columns, and enumerate_paths lists
the paths explicitly, so each can check the others.

The dynamic program runs column by column (_columns) and holds only the
previous column and the one being built, as plain coefficient tuples, so
its memory is bounded by two columns and it uses no recursion and no cache.
lattice_columns and lattice_table read from it.

ballot(i, j) counts the paths to (i, j) by the cycle lemma's closed form,
which does not use the DP; catalan3 and enum's letter limit both read it.

Every odd-column cell L(2m+1, j) is a palindrome of degree j: x >= 2y binds
only at the end of each column pair (2s, 2s+1), so swapping the north-step
counts of columns 2s and 2s+1 turns weight k into j - k.  The DP builds only
the first half of each such cell and mirrors it, so its values rest on this
theorem; the closed form, the enumeration and verify's corner checks are
their independent routes.  The table writers in cli use it too.

Every public entry refuses a count that is not an int, a bool included,
with a TypeError that names it.
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
    """Number of north steps taken at odd x, i.e. the exponent of the path
    weight.  Each step is checked as it is read, with parse_path's errors;
    the step at (x, y) is the one at index x + y."""
    x = y = exponent = 0
    for ch in path:
        if ch == EAST:
            x += 1
        elif ch == NORTH and x >= 2 * (y + 1):
            y += 1
            exponent += x % 2
        else:
            raise _step_error(ch, x + y)
    return exponent


def _require_int(**counts: object) -> None:
    """Raise TypeError naming the first count that is not an int."""
    for name, value in counts.items():
        # type(...) is int, not isinstance: bool is an int subclass.
        if type(value) is not int:
            raise TypeError(f"{name} must be an integer, got {value!r}")


def enumerate_paths(i: int, j: int) -> list[str]:
    """All valid paths from the origin to (i, j), in lexicographic order (E < N).

    Returns the empty list when (i, j) lies strictly above the line or has a
    negative coordinate; a coordinate that is not an int raises TypeError.
    """
    _require_int(i=i, j=j)
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


def _columns(max_i: int) -> Iterator[list[tuple[int, ...]]]:
    """Columns i = 0..max_i: coefficient tuples of L(i, j), j = 0..i // 2.

    Recurrence over the last step: a path into (i, j) arrives by E from
    (i-1, j) or by N from (i, j-1), the latter weighted by x exactly when i
    is odd.  An odd-column cell is a palindrome of degree j (module
    docstring), so only its first j // 2 + 1 coefficients are added up and
    the rest mirror them: each mirrored pair is one int object.  On an even
    column the line cell (i, i/2) has no east step in, as (i-1, i/2) lies
    above the line, so it is the cell below it, as one tuple.  Each yielded
    list is new and never mutated.
    """
    column = [(1,)]
    yield column
    for i in range(1, max_i + 1):
        previous, column, cell = column, [], ()
        if i % 2:
            for j, left in enumerate(previous):
                # [x^k] L(i, j) = left_k + cell_(k-1), for k <= j // 2.
                head = (left[0], *map(add, left[1 : j // 2 + 1], cell))
                cell = head + head[: (j + 1) // 2][::-1]
                column.append(cell)
        else:
            for left in previous:
                # cell, of degree below j, is never longer than left.
                cell = (*map(add, left, cell), *left[len(cell) :])
                column.append(cell)
            column.append(cell)
        yield column


def lattice_poly(i: int, j: int) -> Poly:
    """Weighted count of paths from the origin to (i, j), by its closed form.

    Zero for positions strictly above the line (or negative), so callers may
    sum over a rectangle freely.  With m = i // 2 and 0 <= k <= j <= m,

        [x^k] L(2m+1, j) = (m+1-j)/(m+1) * C(m+k, m) * C(m+j-k, m),
        [x^k] L(2m, j) = (m(m+1-j) - k)/(m(m+1)) * C(m-1+k, m-1) * C(m+j-k, m)

    for m >= 1, and L(0, 0) = 1; the one trailing zero, at k = m on the
    line (2m, m), is trimmed.  They hold because x >= 2y binds only at the
    end of each column pair (2s, 2s+1): a path is a sequence of per-pair
    north counts c_1..c_m with c_1 + ... + c_s <= s, weighted by
    prod (1 + x + ... + x^c_s), the coefficients of
    phi(w) = 1/((1 - w)(1 - xw)).  The weight is invariant under rotation,
    so the cycle lemma gives L(2m+1, j) = (m+1-j)/(m+1) [w^j] phi(w)^(m+1),
    and L(2m, j) = sum_{t <= j} L(2m-1, t) sums it by the hockey stick.
    Both binomials are carried from k to k + 1 by their ratios, so a cell
    costs j + 1 small-by-big multiplications and divisions; every division
    is exact, and _exact_div says so at each coefficient.  No DP code is
    read: the column DP (lattice_columns) and this formula are two routes.
    """
    _require_int(i=i, j=j)
    if i < 0 or j < 0 or i < 2 * j:
        return Poly.zero()
    if i == 0:
        return Poly._trusted((1,))
    m, a = i // 2, (i - 1) // 2  # C(a+k, a): a = m on odd columns, m - 1 on even
    if i % 2:
        scale, step, divisor = m + 1 - j, 0, m + 1
    else:
        scale, step, divisor = m * (m + 1 - j), 1, m * (m + 1)
    what = f"lattice_poly({i},{j})"
    binomials = comb(m + j, m)  # C(a+k, a) * C(m+j-k, m), here at k = 0
    coeffs = []
    for k in range(j + 1):
        if k:
            binomials = binomials * (a + k) * (j + 1 - k) // (k * (m + j + 1 - k))
        coeffs.append(_exact_div((scale - step * k) * binomials, divisor, what))
    if not coeffs[-1]:
        coeffs.pop()
    return Poly._trusted(tuple(coeffs))


def _exact_div(numerator: int, divisor: int, what: str) -> int:
    q, r = divmod(numerator, divisor)
    if r:
        raise ArithmeticError(f"{what}: division by {divisor} is not exact")
    return q


def ballot(i: int, j: int, cap: int | None = None) -> int:
    """Number b(i, j) of paths from the origin to (i, j); 0 off the region.

    By the cycle lemma, b(i, j) = (i - 2j + 1) / (i + j + 1) * C(i + j + 1, j)
    counts the paths to (i, j), and so the matchings with i points and j
    edges; the trees with 2n edges are b(2n, n) = catalan3(n).
    C(i + j + 1, j) is built from the partial products C(i + 1 + t, t),
    t = 1..j, which never decrease and, as j <= i + 1, are each at least
    2^t.  With a cap, the loop stops once one passes cap * (i + j + 1),
    which proves b(i, j) > cap, and returns cap + 1: within about log2 of
    that many steps at any size.  A count of at most the cap, and every
    count without one, is exact.
    """
    _require_int(i=i, j=j)
    if cap is not None:
        _require_int(cap=cap)
        if cap < 0:
            raise ValueError("cap must be nonnegative")
    if i < 0 or j < 0 or i < 2 * j:
        return 0
    limit = None if cap is None else cap * (i + j + 1)
    partial = 1
    for t in range(1, j + 1):
        partial = partial * (i + 1 + t) // t
        if limit is not None and partial > limit:
            return cap + 1
    return _exact_div((i - 2 * j + 1) * partial, i + j + 1, f"ballot({i},{j})")


def catalan3(n: int) -> int:
    """3-Catalan number b(2n, n) = C(3n, n) / (2n + 1): the paths to (2n, n)."""
    _require_int(n=n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ballot(2 * n, n)


def catalan3_coeff(n: int, k: int) -> int:
    """Refinement of the 3-Catalan numbers: C(n-1+k, n-1) * C(2n-k, n+1) / n.

    Equals the coefficient of x^k in lattice_poly(2n, n) for 0 <= k <= n-1.
    descent_poly(n + 1) is built from it, so verify's
    corner-coefficient-formula and descent-closed-form checks compare the
    table's corners with this one formula twice.

    The formula follows from the even-tree grammar, with q marking the
    r-index, by Lagrange inversion.  Its series satisfy P = F*G,
    P = 1/((1 - zP)(1 - qzP)) and F = 1/(1 - zP).  Put W = zP: then
    W = z*phi(W) with phi(w) = 1/((1 - w)(1 - qw)), and F = 1/(1 - W), so
    [z^n]F = (1/n) [w^(n-1)] (1 - w)^-2 phi(w)^n
           = (1/n) [w^(n-1)] (1 - w)^-(n+2) (1 - qw)^-n
           = (1/n) sum_k C(2n-k, n+1) C(n-1+k, n-1) q^k,
    taking q^k from (1 - qw)^-n and w^(n-1-k) from (1 - w)^-(n+2).
    """
    _require_int(n=n, k=k)
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in 0..{n - 1}, got {k}")
    return _exact_div(
        comb(n - 1 + k, n - 1) * comb(2 * n - k, n + 1), n, f"catalan3_coeff({n},{k})"
    )


def descent_poly(n: int) -> Poly:
    """Closed binomial formula for the on-line weight distribution.

    descent_poly(n) has coefficient catalan3_coeff(n - 1, k) at x^k for
    0 <= k <= n-2; it equals lattice_poly(2(n-1), n-1).
    """
    _require_int(n=n)
    if n < 2:
        raise ValueError("n must be at least 2")
    return Poly._trusted(tuple(catalan3_coeff(n - 1, k) for k in range(n - 1)))


def lattice_columns(max_i: int) -> Iterator[list[tuple[int, ...]]]:
    """Stream the table one column at a time, for i = 0..max_i.

    Column i lists the coefficient tuples of lattice_poly(i, j) for
    j = 0..i//2 (ascending powers, no trailing zeros).  max_i is checked at
    call time; columns are built as they are consumed.
    """
    _require_int(max_i=max_i)
    if max_i < 0:
        raise ValueError("max_i must be nonnegative")
    return _columns(max_i)


def lattice_table(max_i: int) -> Iterator[tuple[int, int, Poly]]:
    """Stream all (i, j, lattice_poly(i, j)) with 0 <= i <= max_i, 0 <= 2j <= i.

    Cells come column by column, i ascending and then j ascending; max_i is
    checked at call time, by lattice_columns.
    """
    return (
        (i, j, Poly._trusted(coeffs))
        for i, column in enumerate(lattice_columns(max_i))
        for j, coeffs in enumerate(column)
    )
