"""Exact linear programming over small polytopes, in fraction-free integer
arithmetic.

`simplex` minimizes integer cost rows, ordered lexicographically, over
equality rows and a feasible basis by the primal simplex method with Bland's
rule and names the variables that vanish on every optimum;
`enumerate_vertices` reads the vertices of that optimal face off its final
rows.  With zero costs the optimal face is the whole feasible set, so one LP
answers every vertex question.  Every vertex turns `need` inequalities tight,
one per free variable, and `solve_unique` solves each such square system.
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


def solve_unique(rows: Sequence[IntRow], dim: int) -> Optional[Point]:
    """Unique solution of a square system of primitive integer rows, in lowest
    terms so that equal points compare equal, or None if the system is singular.
    Fraction-free Gauss-Jordan: column `col` takes its pivot from the rows at
    or below `col`; a square system without one is singular."""
    mat = list(rows)
    for col in range(dim):
        k = next((k for k in range(col, dim) if mat[k][col]), None)
        if k is None:
            return None
        mat[k], mat[col] = mat[col], mat[k]
        _eliminate(mat, col, col)
    # Each primitive row now reads pivot * x_col = rhs, a fraction in lowest terms.
    den = lcm(*(row[col] for col, row in enumerate(mat)))
    return tuple(row[dim] * (den // row[col]) for col, row in enumerate(mat)), den


def simplex(tableau: list[IntRow], basis: list[int], costs: Sequence[Sequence[int]]) -> list[int]:
    """Minimize the costs over {x >= 0 : tableau rows hold}; return the columns
    whose reduced cost is lexicographically positive at the optimum, and leave
    the final canonical rows in `tableau` and the final basis in `basis`.

    `costs` are integer rows over the columns, most significant first: the cost
    of column j is the tuple of the rows' entries at j, compared
    lexicographically (one row is an ordinary objective).  The columns returned
    are exactly the variables that vanish on every optimum (complementary
    slackness): the optimal face is the feasible set with them fixed at zero,
    and `enumerate_vertices` lists its vertices from the rows left behind.
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


def enumerate_vertices(
    tableau: list[IntRow], basis: Sequence[int], zero: Iterable[int], implied: Sequence[int] = ()
) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of the face {x >= 0 : rows hold, x_zero = 0} from the
    final `tableau` and `basis` of `simplex` and the `zero` columns it returned,
    that is, of the optimal face.  Over the free columns F (nonbasic, not in
    `zero`) a row reads row[b] * x_b + row[F] . x_F = rhs with row[b] > 0, so
    the face is x_F >= 0 and -row[F] . x_F >= -rhs: no elimination.  The
    columns in `implied` have a sign bound that the other bounds and the rows
    already imply; it is left out, which keeps the vertices and shrinks the
    search.  Each vertex turns need = |F| of the inequalities tight; a point
    face has need = 0.  Refuses with `InstanceError` when the tight subsets to
    try, C(len(ineqs), need), exceed `guard_limit(1_000_000)`."""
    dim = len(tableau[0]) - 1
    fixed = {*basis, *zero}
    free = [c for c in range(dim) if c not in fixed]
    ineqs = [[int(c == f) for c in free] + [0] for f in free if f not in implied]
    bounded = [row for b, row in zip(basis, tableau) if b not in implied]
    ineqs += [_primitive([-row[c] for c in free] + [-row[dim]]) for row in bounded]
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
        for col, row in zip(basis, tableau):
            rest = sum(row[c] * v for c, v in zip(free, num))
            full[col] = Fraction(row[dim] * den - rest, row[col] * den)
        vertices.append(tuple(full))
    return sorted(vertices)
