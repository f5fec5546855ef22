"""Exact vertex enumeration for small polytopes, in fraction-free integer arithmetic.

Polytopes are given by equality rows (coeffs . x == rhs) and inequality rows
(coeffs . x >= rhs) with rational entries, each scaled to integers once.  The
equalities are reduced once and their pivot variables substituted away; every
vertex then turns `need` reduced inequalities tight, one per free variable.
Eliminations keep rows integral and primitive (no fractions); points are
integer numerators over a common denominator until returned.  Intended scale
is at most ~8 variables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Row = tuple[tuple[Fraction, ...], Fraction]  # (coefficients, right-hand side)
IntRow = list[int]  # integer coefficients followed by the right-hand side
Point = tuple[tuple[int, ...], int]  # (numerators, positive common denominator)


def make_row(coeffs: Iterable, rhs) -> Row:
    return tuple(Fraction(c) for c in coeffs), Fraction(rhs)


def _primitive(row: IntRow) -> IntRow:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _integer_row(row: Row) -> IntRow:
    values = (*row[0], row[1])
    scale = lcm(*(v.denominator for v in values))
    return _primitive([v.numerator * (scale // v.denominator) for v in values])


def _reduce(rows: Iterable[IntRow], dim: int) -> Optional[list[tuple[int, IntRow]]]:
    """Fraction-free Gauss-Jordan: (pivot column, primitive row) pairs in column
    order, each pivot positive and alone in its column; None if inconsistent."""
    mat = list(rows)
    cols: list[int] = []
    for col in range(dim):
        top = len(cols)
        for k in range(top, len(mat)):
            if mat[k][col]:
                break
        else:
            continue
        prow = mat[k] if mat[k][col] > 0 else [-v for v in mat[k]]
        mat[k], mat[top] = mat[top], prow
        pivot = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != top:
                mat[i] = _primitive([pivot * a - f * b for a, b in zip(row, prow)])
        cols.append(col)
    if any(row[dim] for row in mat[len(cols):]):  # these rows have zero coefficients
        return None
    return list(zip(cols, mat))


def solve_unique(rows: Sequence[IntRow], dim: int) -> Optional[Point]:
    """Unique solution of a square system of primitive integer rows, in lowest
    terms so that equal points compare equal, or None if the system is singular."""
    reduced = _reduce(rows, dim)
    if reduced is None or len(reduced) < dim:
        return None
    # Each primitive row now reads pivot * x_col = rhs, a fraction in lowest terms.
    den = lcm(*(row[col] for col, row in reduced))
    return tuple(row[dim] * (den // row[col]) for col, row in reduced), den


def enumerate_vertices(
    equalities: Sequence[Row], inequalities: Sequence[Row], dim: int
) -> list[tuple[Fraction, ...]]:
    """All vertices of {x : eq rows hold, ineq rows >= rhs}, sorted."""
    reduced = _reduce(map(_integer_row, equalities), dim)
    if reduced is None:
        return []
    pivots = {col for col, _ in reduced}
    free = [c for c in range(dim) if c not in pivots]
    need = len(free)
    scale = lcm(*(row[col] for col, row in reduced))
    # Substitute each pivot variable: scale * (a . x - b) >= 0 in the free variables.
    eqs = [(col, scale // row[col], [row[c] for c in free] + [row[dim]]) for col, row in reduced]
    ineqs = []
    for row in map(_integer_row, inequalities):
        out = [scale * row[c] for c in free] + [scale * row[dim]]
        for col, mult, eq in eqs:
            f = row[col] * mult
            if f:
                out = [a - f * b for a, b in zip(out, eq)]
        ineqs.append(_primitive(out))

    seen: set[Point] = set()
    found: list[Point] = []
    for tight in combinations(ineqs, need):
        point = solve_unique(tight, need)
        if point is None or point in seen:
            continue
        seen.add(point)
        num, den = point
        if all(sum(a * x for a, x in zip(row, num)) >= row[need] * den for row in ineqs):
            found.append(point)

    vertices = []
    for num, den in found:
        full = dict(zip(free, (scale * v for v in num)))  # over scale * den
        for col, mult, eq in eqs:
            full[col] = mult * (eq[need] * den - sum(a * v for a, v in zip(eq, num)))
        vertices.append(tuple(Fraction(full[c], scale * den) for c in range(dim)))
    return sorted(vertices)
