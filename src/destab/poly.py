"""Univariate polynomials with rational coefficients, ordered asymptotically.

Two polynomials are compared by how they behave for large arguments, i.e.
by the sign of the leading coefficient of their difference.  A scalar acts as
a constant polynomial in `+`, `-`, `<` and `>` and as a factor in `*`, so a
`UniPoly` serves as a stability value wherever a `Fraction` does.  `==` stays
between polynomials (the frozen dataclass is hashable), so test signs with
`< 0` and `> 0`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class UniPoly:
    """Canonical polynomial: coefficients constant-term first, no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar]) -> "UniPoly":
        return UniPoly(_trim(tuple(Fraction(c) for c in coeffs)))

    @staticmethod
    def constant(c: Scalar) -> "UniPoly":
        return UniPoly.from_coeffs([c])

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other: Union["UniPoly", Scalar]) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return UniPoly(_trim(tuple(x + y for x, y in zip(a, b))))

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union["UniPoly", Scalar]) -> "UniPoly":
        return self + (-other)

    def scale(self, c: Scalar) -> "UniPoly":
        c = Fraction(c)
        if c == 0:
            return UniPoly(())
        return UniPoly(tuple(c * x for x in self.coeffs))

    def __mul__(self, c: Scalar) -> "UniPoly":
        return self.scale(c)

    __rmul__ = __mul__

    def __lt__(self, other: Union["UniPoly", Scalar]) -> bool:
        return poly_cmp(self, other) < 0

    def __gt__(self, other: Union["UniPoly", Scalar]) -> bool:
        return poly_cmp(self, other) > 0


def poly_cmp(p: UniPoly, q: Union[UniPoly, Scalar]) -> int:
    """Asymptotic comparison: -1 if p(x) < q(x) for x >> 0, 0 if equal, +1 otherwise."""
    lead = (p - q).leading
    if lead < 0:
        return -1
    if lead > 0:
        return 1
    return 0
