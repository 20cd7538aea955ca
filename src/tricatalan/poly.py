"""Dense univariate polynomials with exact integer coefficients.

The whole package counts things, so coefficients are plain Python ints
(exact, unbounded).  A polynomial is stored as a tuple of coefficients in
ascending powers with no trailing zeros; the zero polynomial stores the
empty tuple.  Values are immutable and hashable.

Coefficient types are checked once, by the public constructor; arithmetic
on polynomials that passed it builds its results without checking again.
"""

from __future__ import annotations

from collections.abc import Iterable

from .frozen import Frozen


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


class Poly(Frozen):
    """Polynomial c0 + c1*x + c2*x^2 + ... with coeffs[k] the coefficient of x^k;
    coeffs is a tuple of ints without trailing zeros."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @classmethod
    def zero(cls) -> Poly:
        return cls._trusted(())

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if k < 0:
            raise ValueError("power must be nonnegative")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for k, c in enumerate(b):
            summed[k] += c
        return Poly._trusted(_trim(tuple(summed)))

    def eval_at_one(self) -> int:
        """Sum of coefficients, i.e. the total count behind the polynomial."""
        return sum(self.coeffs)

    def to_json(self) -> list[int]:
        """Ascending coefficient list, e.g. [2, 3, 2] for 2 + 3x + 2x^2."""
        return list(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
        return " + ".join(terms)


def histogram_poly(values: Iterable[int]) -> Poly:
    """Generating polynomial of a statistic: the coefficient of x^k counts the k's.

    histogram_poly([0, 2, 2]) is 1 + 2x^2; no values give the zero polynomial.
    """
    counts: list[int] = []
    for k in values:
        if k < 0:
            raise ValueError(f"statistic values must be nonnegative, got {k}")
        if k >= len(counts):
            counts.extend([0] * (k + 1 - len(counts)))
        counts[k] += 1
    return Poly._trusted(tuple(counts))
