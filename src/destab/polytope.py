"""Exact linear programming and vertex enumeration for small polytopes, in
fraction-free integer arithmetic.

Polytopes are given by equality rows (coeffs . x == rhs) and inequality rows
(coeffs . x >= rhs) with integer entries.  `simplex` minimizes integer cost
rows, ordered lexicographically, over equality rows and a feasible basis by the
primal simplex method with Bland's rule and names the variables that vanish on
every optimum; `optimal_face` reads the vertices of that optimal face off its
final rows.  `enumerate_vertices` lists those of any small polytope, reducing
the equalities once and substituting their pivot variables away.  In both,
every vertex turns `need` inequalities tight, one per free variable.
`_eliminate` is the one elimination step, and keeps rows integral and
primitive (no fractions); points are integer numerators over a common
denominator until returned as `Fraction`s.  Intended scale is at most ~12
variables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, Optional, Sequence

from .model import InstanceError, guard_limit

Row = tuple[Sequence[int], int]  # (coefficients, right-hand side)
IntRow = list[int]  # integer coefficients followed by the right-hand side
Point = tuple[tuple[int, ...], int]  # (numerators, positive common denominator)


def _primitive(row: IntRow) -> IntRow:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _eliminate(mat: list[IntRow], k: int, col: int) -> None:
    """Make row k's entry in column `col` positive, negating the row if needed,
    and clear the column from every other row; each changed row is a positive
    multiple of the exact result, made primitive.  A row shorter than row k (a
    cost row with no right-hand side) stays short."""
    prow = mat[k] = mat[k] if mat[k][col] > 0 else [-v for v in mat[k]]
    pivot = prow[col]
    for i, row in enumerate(mat):
        f = row[col]
        if f and i != k:
            mat[i] = _primitive([pivot * a - f * b for a, b in zip(row, prow)])


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
        mat[k], mat[top] = mat[top], mat[k]
        _eliminate(mat, top, col)
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


def simplex(tableau: list[IntRow], basis: list[int], costs: Sequence[Sequence[int]]) -> list[int]:
    """Minimize the costs over {x >= 0 : tableau rows hold}; return the columns
    whose reduced cost is lexicographically positive at the optimum, and leave
    the final canonical rows in `tableau` and the final basis in `basis`.

    `costs` are integer rows over the columns, most significant first: the cost
    of column j is the tuple of the rows' entries at j, compared
    lexicographically (one row is an ordinary objective).  The columns returned
    are exactly the variables that vanish on every optimum (complementary
    slackness): the optimal face is the feasible set with them fixed at zero,
    and `optimal_face` lists its vertices from the rows left behind.
    The tableau rows are equalities as written, right-hand side last, and the
    basic solution of `basis` is feasible; row k's entry in column basis[k] must
    be nonzero once the columns basis[:k] are cleared.  The cost rows, with no
    right-hand side, go below it.  `_eliminate` brings it all into canonical
    form (each basic entry positive and alone in its column), prices and pivots.
    Its positive row factors keep every entry's sign and every column's tuple
    order, so the pivots do not depend on how the rows were written.  Pivots
    follow Bland's rule (Bland 1977), so the method terminates.
    """
    m = len(tableau)
    mat = [*tableau, *costs]
    for k, b in enumerate(basis):  # canonical form, costs priced out
        _eliminate(mat, k, b)
    while True:
        lead = mat[m]
        for row in mat[m + 1 :]:  # the first nonzero entry of each column's tuple
            lead = [a or b for a, b in zip(lead, row)]
        enter = next((j for j, c in enumerate(lead) if c < 0), None)
        if enter is None:
            tableau[:] = mat[:m]
            return [j for j, c in enumerate(lead) if c > 0]
        leave = None
        for k in range(m):  # minimum ratio, ties to the least basic index
            row = mat[k]
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = k
                    continue
                best = mat[leave]
                lhs, rhs = row[-1] * best[enter], best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[k] < basis[leave]):
                    leave = k
        if leave is None:
            raise ValueError("the objective is unbounded below")
        _eliminate(mat, leave, enter)
        basis[leave] = enter


def _vertices(
    basic: Sequence[tuple[int, IntRow]], free: list[int], ineqs: list[IntRow], dim: int
) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of {x : x_free meets `ineqs`, each basic row reads
    row[col] * x_col + row[free] . x_free = row[dim], other columns are 0}.
    Refuses with `InstanceError` when the tight subsets to try, C(len(ineqs),
    len(free)), exceed `guard_limit(1_000_000)`."""
    need = len(free)
    count, limit = comb(len(ineqs), need), guard_limit(1_000_000)
    if count > limit:
        raise InstanceError(
            f"vertex enumeration too large: {count} tight subsets "
            f"(C({len(ineqs)}, {need})) > {limit}"
        )
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
        full = [Fraction(0)] * dim
        for col, v in zip(free, num):
            full[col] = Fraction(v, den)
        for col, row in basic:
            rest = sum(row[c] * v for c, v in zip(free, num))
            full[col] = Fraction(row[dim] * den - rest, row[col] * den)
        vertices.append(tuple(full))
    return sorted(vertices)


def enumerate_vertices(
    equalities: Sequence[Row], inequalities: Sequence[Row], dim: int
) -> list[tuple[Fraction, ...]]:
    """All vertices of {x : eq rows hold, ineq rows >= rhs}, sorted; guarded
    by `_vertices`."""
    reduced = _reduce((_primitive([*a, b]) for a, b in equalities), dim)
    if reduced is None:
        return []
    pivots = {col for col, _ in reduced}
    free = [c for c in range(dim) if c not in pivots]
    # Substitute the pivot variables away: each inequality row gains multiples of
    # the equalities and positive factors only, so it keeps its solutions.
    mat = [row for _, row in reduced] + [_primitive([*a, b]) for a, b in inequalities]
    for k, (col, _) in enumerate(reduced):
        _eliminate(mat, k, col)
    ineqs = [[row[c] for c in free] + [row[dim]] for row in mat[len(reduced) :]]
    return _vertices(reduced, free, ineqs, dim)


def optimal_face(
    tableau: Sequence[IntRow], basis: Sequence[int], zero: Iterable[int]
) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of the optimal face {x >= 0 : rows hold, x_zero = 0}
    from the final `tableau` and `basis` of `simplex` and the `zero` columns it
    returned.  Over the free columns F (nonbasic, not in `zero`) a row reads
    row[b] * x_b + row[F] . x_F = rhs with row[b] > 0, so the face is x_F >= 0
    and -row[F] . x_F >= -rhs: no elimination.  A point face has need = 0."""
    dim = len(tableau[0]) - 1
    fixed = {*basis, *zero}
    free = [c for c in range(dim) if c not in fixed]
    ineqs = [[int(c == f) for c in free] + [0] for f in free]
    ineqs += [_primitive([-row[c] for c in free] + [-row[dim]]) for row in tableau]
    return _vertices(list(zip(basis, tableau)), free, ineqs, dim)
