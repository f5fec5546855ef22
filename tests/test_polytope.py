"""`polytope.solve_unique`, the fraction-free kernel that solves every tight
system of the LP's vertex listing, against the Fraction-elimination oracle,
alone and as the kernel under decide, `--trace` and splitting."""

import random
from fractions import Fraction
from math import lcm

import pytest

import destab.polytope
from destab import check_splitting, decide_destabilizing
from destab.polytope import _primitive, solve_unique
from destab.stability import region_minima

import oracles
from oracles import make_row
from util import level_set_instance

F = Fraction


def _coeff(rng):
    roll = rng.random()
    if roll < 0.2:
        return 0
    if roll < 0.6:
        return rng.randint(-3, 3)
    return F(rng.randint(-6, 6), rng.randint(1, 5))


def _library(rows, dim):
    """`solve_unique` on the rows written as primitive integer rows, as Fractions;
    checks that the point is in lowest terms and that no row was changed."""
    ints = [_primitive([*a, b]) for a, b in rows]
    before = [list(row) for row in ints]
    point = solve_unique(ints, dim)
    assert ints == before
    if point is None:
        return None
    num, den = point
    got = tuple(F(n, den) for n in num)
    assert den == lcm(*(x.denominator for x in got))
    return got


def _random_square_system(rng):
    """`dim` random rows over `dim` unknowns; some are singular by construction:
    a duplicate, a rescaled (possibly negated) or a dependent row, each
    consistent with its source rows or not."""
    dim = rng.randint(1, 4)
    rows = [[_coeff(rng) for _ in range(dim + 1)] for _ in range(dim)]
    kind = rng.choice(["random", "random", "duplicate", "rescaled", "dependent"])
    if dim > 1 and kind != "random":
        i, j = rng.sample(range(dim), 2)
        a, b = F(rng.choice([-2, -1, 3]), rng.choice([1, 2])), F(rng.randint(-2, 2))
        k = next(k for k in range(dim) if k != j)
        source = {
            "duplicate": rows[i],
            "rescaled": [a * v for v in rows[i]],
            "dependent": [a * u + b * v for u, v in zip(rows[i], rows[k])],
        }[kind]
        rows[j] = source[:-1] + [source[-1] + rng.choice([0, 0, 1])]
    return [make_row(row[:-1], row[-1]) for row in rows], dim, kind


def test_random_systems_match_the_oracle():
    rng = random.Random(20260418)
    solved, kinds = 0, set()
    for _ in range(1000):
        rows, dim, kind = _random_square_system(rng)
        got = _library(rows, dim)
        assert got == oracles.solve_unique(rows, dim), (rows, dim)
        solved += got is not None
        kinds.add((kind, got is not None))
    assert 300 < solved < 900  # both singular and regular systems occur
    assert {("duplicate", False), ("rescaled", False), ("dependent", False)} <= kinds


EDGE_CASES = [
    # dim 1: 3x = 1
    ([make_row([3], 1)], 1, [(F(1, 3),)]),
    # dim 1: a fractional row
    ([make_row([F(2, 3)], F(1, 2))], 1, [(F(3, 4),)]),
    # parallel, inconsistent rows: singular
    ([make_row([1, 1], 1), make_row([2, 2], 3)], 2, []),
    # a rescaled copy of a row: singular
    ([make_row([1, 1], 1), make_row([F(1, 2), F(1, 2)], F(1, 2))], 2, []),
    # the point where x + y = 1 meets x = y
    ([make_row([1, 1], 1), make_row([1, -1], 0)], 2, [(F(1, 2), F(1, 2))]),
    # the first column's pivot is negative and sits in the second row
    ([make_row([0, 3], 1), make_row([-2, 0], 1)], 2, [(F(-1, 2), F(1, 3))]),
    # a vertex of the 2-simplex, one of its facets rescaled
    (
        [make_row([1, 1, 1], 1), make_row([F(1, 2), 0, 0], 0), make_row([0, 1, 0], 0)],
        3,
        [(0, 0, 1)],
    ),
    # no unknowns: the empty point, over denominator 1
    ([], 0, [()]),
]


# The ids keep the names these cases have always been reported under.
@pytest.mark.parametrize(
    "rows, dim, expected",
    EDGE_CASES,
    ids=[f"eqs{k}-ineqs{k}-{dim}-expected{k}" for k, (_, dim, _) in enumerate(EDGE_CASES)],
)
def test_edge_cases(rows, dim, expected):
    """The unique solution of a square system, or [] when it is singular."""
    expected = [tuple(F(c) for c in v) for v in expected]
    assert [p for p in [_library(rows, dim)] if p is not None] == expected
    assert [p for p in [oracles.solve_unique(rows, dim)] if p is not None] == expected


def _oracle_kernel(rows, dim):
    """`oracles.solve_unique` in `solve_unique`'s form: integer numerators over
    their least common denominator."""
    point = oracles.solve_unique([(row[:-1], row[-1]) for row in rows], dim)
    if point is None:
        return None
    den = lcm(*(x.denominator for x in point))
    return tuple(int(x * den) for x in point), den


def _core_results(instances):
    out = []
    for fs, ps, sp in instances:
        out.append(decide_destabilizing(fs, ps, sp, "semi"))
        out.append(decide_destabilizing(fs, ps, sp, "stable"))
        out.append(region_minima(fs, ps, sp))
        out.append(check_splitting(fs, ps))
    return out


def test_core_results_match_through_the_oracle_kernel(monkeypatch):
    """Decide, `--trace` and splitting give the same results when every tight
    system of their LP is solved by the Fraction oracle instead."""
    rng = random.Random(4242)
    instances = [level_set_instance(rng, "hilbert" if k % 3 == 2 else "slope") for k in range(40)]
    assert {fs.s for fs, _, _ in instances} == {1, 2, 3, 4}
    fast = _core_results(instances)
    assert len({r.classification for r in fast[::4]}) == 4  # every verdict class occurs
    calls = []

    def kernel(rows, dim):
        calls.append(dim)
        return _oracle_kernel(rows, dim)

    monkeypatch.setattr(destab.polytope, "solve_unique", kernel)
    assert _core_results(instances) == fast
    assert len(calls) >= 4 * len(instances)  # every result went through the oracle


def test_simplex_refuses_an_unbounded_objective():
    # x0 = x1 >= 0 with cost -x0 - x1 decreases without bound along x1.
    with pytest.raises(ValueError, match="^the objective is unbounded below$"):
        destab.polytope.simplex([[1, -1, 0]], [0], [[-1, -1]])
