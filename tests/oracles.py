"""Test-only oracles: independent, slow routes to values the library computes.

`enumerate_vertices` is the original vertex enumerator: Gaussian elimination
over `Fraction` on the full system of every tight-constraint subset.  The
library's fraction-free integer kernel must return exactly what it returns.
`flag_pivots` is the original p1 flag pivot extraction through the full 0/1
table; the library derives the pivots directly from the support's levels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Sequence

from destab.pivots import PivotSet, Tuple_, ordered_tuples, pivots_from_matrix
from destab.polytope import Row


def _eliminate(rows: Sequence[Row], dim: int) -> tuple[list[list[Fraction]], bool]:
    """Row-reduce the augmented system; returns (reduced rows, consistent)."""
    mat = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    pivot_row = 0
    for col in range(dim):
        pr = next((r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None)
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        mat[pivot_row] = [v * inv for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * p for v, p in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    consistent = all(
        any(row[c] != 0 for c in range(dim)) or row[dim] == 0 for row in mat
    )
    return mat, consistent


def rank(rows: Sequence[Row], dim: int) -> int:
    mat, _ = _eliminate(rows, dim)
    return sum(1 for row in mat if any(row[c] != 0 for c in range(dim)))


def solve_unique(rows: Sequence[Row], dim: int) -> Optional[tuple[Fraction, ...]]:
    """Unique solution of the linear system, or None if singular/inconsistent."""
    mat, consistent = _eliminate(rows, dim)
    if not consistent:
        return None
    solution: list[Optional[Fraction]] = [None] * dim
    for row in mat:
        support = [c for c in range(dim) if row[c] != 0]
        if len(support) == 1:
            solution[support[0]] = row[dim] / row[support[0]]
        elif len(support) > 1:
            return None  # underdetermined
    if any(v is None for v in solution):
        return None
    return tuple(v for v in solution)  # type: ignore[misc]


def enumerate_vertices(
    equalities: Sequence[Row], inequalities: Sequence[Row], dim: int
) -> list[tuple[Fraction, ...]]:
    """All vertices of {x : eq rows hold, ineq rows >= rhs}, sorted."""
    base_rank = rank(equalities, dim)
    need = dim - base_rank
    if need < 0:
        return []
    found: set[tuple[Fraction, ...]] = set()
    for tight in combinations(range(len(inequalities)), need):
        rows = list(equalities) + [inequalities[k] for k in tight]
        point = solve_unique(rows, dim)
        if point is None:
            continue
        ok = all(
            sum(c * x for c, x in zip(coeffs, point)) >= rhs
            for coeffs, rhs in inequalities
        )
        if ok:
            found.add(point)
    return sorted(found)


def flag_pivots(tensor, i: int, j: int) -> PivotSet:
    """Pivot set of a p1 flag from its full 0/1 table, by trying every
    permutation of every support multiset against every ordered tuple."""
    allowed = {1: {i}, 2: {i, j}, 3: {1, 2, 3}}

    def entry(levels: Tuple_) -> int:
        for m in tensor.support:
            for perm in permutations(m):
                if all(x in allowed[lvl] for x, lvl in zip(perm, levels)):
                    return 1
        return 0

    return pivots_from_matrix({tup: entry(tup) for tup in ordered_tuples(3, 3)})
