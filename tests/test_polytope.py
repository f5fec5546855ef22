"""The fraction-free vertex enumerator against the Fraction-elimination oracle."""

import random
from fractions import Fraction

import pytest

import destab.stability
from destab import check_splitting, decide_destabilizing
from destab.polytope import enumerate_vertices
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


def _random_system(rng):
    dim = rng.randint(1, 4)

    def row():
        return make_row([_coeff(rng) for _ in range(dim)], _coeff(rng))

    eqs = [row() for _ in range(rng.randint(0, 3))]
    if eqs and rng.random() < 0.3:  # dependent and consistent
        k = F(rng.choice([-2, 3, 1]), rng.choice([1, 2]))
        eqs.append(make_row([k * c for c in eqs[0][0]], k * eqs[0][1]))
    if eqs and rng.random() < 0.15:  # dependent and inconsistent
        eqs.append(make_row(eqs[0][0], eqs[0][1] + 1))
    ineqs = [row() for _ in range(rng.randint(0, 6))]
    if ineqs and rng.random() < 0.3:
        ineqs.append(rng.choice(ineqs))  # duplicate row
    return eqs, ineqs, dim


def test_random_systems_match_the_oracle():
    rng = random.Random(20260418)
    nonempty = 0
    for _ in range(1000):
        eqs, ineqs, dim = _random_system(rng)
        got = enumerate_vertices(eqs, ineqs, dim)
        assert got == oracles.enumerate_vertices(eqs, ineqs, dim), (eqs, ineqs, dim)
        assert all(isinstance(c, Fraction) for v in got for c in v)
        nonempty += bool(got)
    assert 200 < nonempty < 800  # both empty and nonempty polytopes occur


@pytest.mark.parametrize(
    "eqs, ineqs, dim, expected",
    [
        # dim 1: the segment [1/3, 5/2]
        ([], [make_row([3], 1), make_row([-2], -5)], 1, [(F(1, 3),), (F(5, 2),)]),
        # dim 1 with a fractional equality and a redundant inequality
        ([make_row([F(2, 3)], F(1, 2))], [make_row([1], 0)], 1, [(F(3, 4),)]),
        # inconsistent equalities: empty
        ([make_row([1, 1], 1), make_row([2, 2], 3)], [make_row([1, 0], 0)], 2, []),
        # infeasible inequalities: empty
        ([make_row([1, 1], 1)], [make_row([1, 0], 2), make_row([0, 1], 0)], 2, []),
        # full-rank equalities: the single point, if it is feasible
        (
            [make_row([1, 1], 1), make_row([1, -1], 0)],
            [make_row([1, 0], 0)],
            2,
            [(F(1, 2), F(1, 2))],
        ),
        ([make_row([1, 1], 1), make_row([1, -1], 0)], [make_row([1, 0], 1)], 2, []),
        # the 2-simplex with duplicated and rescaled facets
        (
            [make_row([1, 1, 1], 1), make_row([2, 2, 2], 2)],
            [make_row([1, 0, 0], 0), make_row([0, 1, 0], 0), make_row([0, 0, 1], 0),
             make_row([F(1, 2), 0, 0], 0)],
            3,
            [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
        ),
    ],
)
def test_edge_cases(eqs, ineqs, dim, expected):
    expected = [tuple(F(c) for c in v) for v in expected]
    assert enumerate_vertices(eqs, ineqs, dim) == expected
    assert oracles.enumerate_vertices(eqs, ineqs, dim) == expected


def _core_results(instances):
    out = []
    for fs, ps, sp in instances:
        out.append(decide_destabilizing(fs, ps, sp, "semi"))
        out.append(decide_destabilizing(fs, ps, sp, "stable"))
        out.append(region_minima(fs, ps, sp))
        out.append(check_splitting(fs, ps))
    return out


def test_core_results_match_through_the_oracle_kernel(monkeypatch):
    rng = random.Random(4242)
    instances = [level_set_instance(rng, "hilbert" if k % 3 == 2 else "slope") for k in range(40)]
    assert {fs.s for fs, _, _ in instances} == {1, 2, 3, 4}
    fast = _core_results(instances)
    assert len({r.classification for r in fast[::4]}) == 4  # every verdict class occurs
    monkeypatch.setattr(destab.stability, "enumerate_vertices", oracles.enumerate_vertices)
    assert _core_results(instances) == fast
