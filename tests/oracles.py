"""Test-only oracles: independent, slow routes to values the library computes.

`enumerate_vertices` is the original vertex enumerator: Gaussian elimination
over `Fraction` on the full system of every tight-constraint subset, with
`solve_unique` solving each one.  The library answers every polytope question
with one fraction-free integer LP and lists the vertices of its optimal face;
`polytope.solve_unique` must return exactly what `solve_unique` returns, and
`make_row` writes a rational row as an integer row.  `region_minima` and
`decide_destabilizing` are the original per-pivot decision: the vertices of
every pivot's linearity region, each region enumerated on its own, and the
minimum over all of them; `check_splitting` enumerates the polytope of equal
pivot sums.  The library's zero-cost, least-value and least-slack LPs must
return exactly what they return.  `check_k_semistable` computes the step
conditions from the formula c_i + r delta k_i (`step_values`); the library
reads them off the decide's integer cost keys, and `decide_destabilizing` fills
its verdict's `step_conditions` from the formula.  `p1_hull` decides a p1 tensor
by the torus hull test instead of its six flags.  `flag_pivots` is the
original p1 flag pivot extraction through the full 0/1 table; the library
derives the pivots directly from the support's levels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from destab.pivots import PivotSet, Tuple_, ordered_tuples
from destab.stability import (
    BOUNDARY_WITNESS,
    MARGINALLY_DESTABILIZED,
    STABLE_OK,
    STRICTLY_DESTABILIZED,
    CheckVerdict,
    constants,
)

Row = tuple[Sequence[int], int]  # (coefficients, right-hand side)


def make_row(coeffs: Iterable, rhs) -> Row:
    """The rational row coeffs . x (op) rhs as an integer row with the same
    solutions, scaled by the positive lcm of its denominators."""
    values = [Fraction(v) for v in (*coeffs, rhs)]
    scale = lcm(*(v.denominator for v in values))
    *ints, b = (int(v * scale) for v in values)
    return tuple(ints), b


def _eliminate(rows: Sequence[Row], dim: int) -> tuple[list[list[Fraction]], bool]:
    """Row-reduce the augmented system; returns (reduced rows, consistent)."""
    mat = [[Fraction(v) for v in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
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


def region_minima(fs, ps, sp, kernel=enumerate_vertices):
    """Vertices of each pivot p's region {w in the simplex : g_p . w >= g_q . w
    for every pivot q}, one enumeration per region, with their exact values."""
    cs = constants(fs, sp)
    s, r = fs.s, fs.total.rank
    coeffs = {p: tuple(sum(1 for c in p if c <= i) for i in range(1, s + 1)) for p in ps.pivots}
    simplex_eq = [make_row([1] * s, 1)]
    nonneg = [make_row([1 if j == i else 0 for j in range(s)], 0) for i in range(s)]
    out = []
    for p in ps.pivots:
        region_rows = [
            make_row([xa - xb for xa, xb in zip(coeffs[p], coeffs[q])], 0)
            for q in ps.pivots
            if q != p
        ]
        points = []
        for v in kernel(simplex_eq, nonneg + region_rows, s):
            rmax = sum((x * alpha for x, alpha in zip(coeffs[p], v)), Fraction(0))
            points.append((v, sum(alpha * c for alpha, c in zip(v, cs)) + r * rmax * sp.delta))
        out.append((p, points))
    return out


def decide_destabilizing(fs, ps, sp, strictness="semi", kernel=enumerate_vertices):
    """Minimum over every region vertex; among the regions attaining it the
    least pivot, the lexicographically least vertex, and the centroid of the
    last region whose minimizing vertices have a strictly positive centroid."""
    best_value = None
    best_vertices: list = []
    best_pivot = None
    interior_witness = None
    for p, points in region_minima(fs, ps, sp, kernel):
        if not points:
            continue
        region_min = min(val for _, val in points)
        minimizers = [v for v, val in points if val == region_min]
        if best_value is None or region_min < best_value:
            best_value, best_vertices, best_pivot = region_min, list(minimizers), p
            interior_witness = None
        elif region_min == best_value:
            best_vertices.extend(minimizers)
            best_pivot = min(best_pivot, p)
        if region_min == best_value:
            n = len(minimizers)
            centroid = tuple(
                sum((v[i] for v in minimizers), Fraction(0)) / n for i in range(fs.s)
            )
            if all(c > 0 for c in centroid):
                interior_witness = centroid

    witness = min(best_vertices)
    boundary = None
    if best_value < 0:
        classification = STRICTLY_DESTABILIZED
    elif best_value > 0:
        classification = STABLE_OK
    elif interior_witness is not None:
        classification, witness = MARGINALLY_DESTABILIZED, interior_witness
    else:
        classification = BOUNDARY_WITNESS
        boundary = tuple(i + 1 for i, c in enumerate(witness) if c > 0)
    strict = strictness == "stable"
    violated = best_value < 0 or (strict and not best_value > 0)
    conditions = tuple(check_k_semistable(fs, ps, sp, strict))
    return CheckVerdict(
        best_value, witness, best_pivot, classification, violated, conditions, boundary
    )


def check_splitting(fs, ps):
    """The lexicographically least point of {w in the simplex : g_p . w =
    g_q . w for all pivots p, q}, as `check_splitting` reports it."""
    s = fs.s
    gs = [[sum(1 for c in p if c <= i) for i in range(1, s + 1)] for p in ps.pivots]
    equal_sums = [make_row([a - b for a, b in zip(g, gs[0])], 0) for g in gs[1:]]
    nonneg = [make_row([int(i == j) for i in range(s)], 0) for j in range(s)]
    vertices = enumerate_vertices([make_row([1] * s, 1)] + equal_sums, nonneg, s)
    return (True, vertices[0]) if vertices else (False, None)


def step_values(fs, ps, sp) -> list:
    """Each step's length-one value c_i + r delta k_i, with k_i the most pivot
    coordinates at or below level i: the stability value at the vertex e_i."""
    r = fs.total.rank
    return [
        c + r * max(sum(1 for x in p if x <= level) for p in ps.pivots) * sp.delta
        for level, c in enumerate(constants(fs, sp), start=1)
    ]


def check_k_semistable(fs, ps, sp, strict=False) -> list[bool]:
    """The step conditions from their formula: step i holds unless its value
    is negative or, when `strict`, not positive."""
    return [not (v < 0 or (strict and not v > 0)) for v in step_values(fs, ps, sp)]


def p1_hull(tensor, strict=False) -> bool:
    """Whether d/delta lies in the hull of the weights count_m - (a/r) 1 of the
    support's monomials m, in its interior relative to the sum-zero plane when
    `strict`: the torus hull test (Mumford, Fogarty & Kirwan, GIT, 2.1) that
    the README derives for `is_semistable_p1`.

    The plane is read in its first two coordinates.  d/delta lies in the hull
    when no direction u has max_m <u, wt_m> < <u, d/delta>, and in its
    interior when none has <=.  It suffices to try e_1, e_2, each difference
    of two weights and that difference turned a quarter turn, all with both
    signs: they hold the outer normal of every edge of a polygon hull, the
    normals and directions of a segment hull, and four directions around a
    point hull."""
    d, delta = tensor.degrees, tensor.delta
    counts = {(m.count(1), m.count(2)) for m in tensor.support}
    shift = Fraction(len(next(iter(tensor.support))), len(d))  # a / r
    dirs = {(1, 0), (0, 1)}
    for (a1, a2), (b1, b2) in combinations(counts, 2):
        g = gcd(a1 - b1, a2 - b2)
        dirs |= {((a1 - b1) // g, (a2 - b2) // g), ((b2 - a2) // g, (a1 - b1) // g)}
    for u1, u2 in dirs | {(-u1, -u2) for u1, u2 in dirs}:
        top = max(u1 * c1 + u2 * c2 for c1, c2 in counts) - (u1 + u2) * shift
        gap = top - (u1 * d[0] + u2 * d[1]) / delta
        if gap < 0 or (strict and gap == 0):
            return False
    return True


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

    return PivotSet.from_tuples([tup for tup in ordered_tuples(3, 3) if entry(tup)], t=3, arity=3)
