from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from destab.poly import UniPoly, poly_cmp

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=9)
polys = st.lists(fractions, max_size=5).map(UniPoly.from_coeffs)


def test_canonical_trim():
    assert UniPoly.from_coeffs([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert UniPoly.from_coeffs([0, 0]) == UniPoly(())


def test_degree_and_leading():
    p = UniPoly.from_coeffs([3, 0, -2])
    assert len(p.coeffs) == 3  # degree 2
    assert p.leading == Fraction(-2)
    assert UniPoly.constant(5).coeffs == (Fraction(5),)


def test_arithmetic():
    p = UniPoly.from_coeffs([1, 2])
    q = UniPoly.from_coeffs([-1, -2])
    assert (p + q).coeffs == ()
    assert p - p == UniPoly(())
    assert p.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1))


def test_asymptotic_order():
    # Leading coefficients dominate: m^2 beats any linear polynomial.
    quad = UniPoly.from_coeffs([0, 0, 1])
    lin = UniPoly.from_coeffs([100, 100])
    assert poly_cmp(quad, lin) > 0
    assert poly_cmp(lin, quad) < 0
    assert poly_cmp(lin, lin) == 0


@given(polys, polys)
def test_cmp_antisymmetry(p, q):
    assert poly_cmp(p, q) == -poly_cmp(q, p)


@given(polys, polys, polys)
def test_cmp_translation_invariance(p, q, r):
    assert poly_cmp(p + r, q + r) == poly_cmp(p, q)


@given(polys)
def test_add_zero_identity(p):
    assert p + UniPoly(()) == p
    assert (p - p).coeffs == ()


def test_immutability():
    p = UniPoly.from_coeffs([1])
    with pytest.raises(Exception):
        p.coeffs = (Fraction(2),)


positive = st.fractions(min_value=0, max_value=50, max_denominator=9).filter(lambda c: c > 0)


@given(polys, polys, polys)
def test_lt_is_a_strict_total_order_consistent_with_poly_cmp(p, q, r):
    assert (p < q) == (poly_cmp(p, q) < 0)
    assert (p > q) == (poly_cmp(p, q) > 0)
    assert [p < q, p == q, p > q].count(True) == 1
    assert not p < p
    if p < q and q < r:
        assert p < r


@given(polys, polys, polys, fractions)
def test_lt_is_translation_invariant(p, q, r, c):
    assert (p + r < q + r) == (p < q)
    assert (p + c < q + c) == (p < q)
    assert (c + p > c + q) == (p > q)


@given(polys, polys, positive)
def test_lt_is_preserved_by_positive_scaling(p, q, c):
    assert (c * p < c * q) == (p < q)
    assert (p * c > q * c) == (p > q)


@given(fractions, fractions)
def test_constants_order_like_their_fractions(a, b):
    assert (UniPoly.constant(a) < UniPoly.constant(b)) == (a < b)
    assert (UniPoly.constant(a) > b) == (a > b)
    assert (a < UniPoly.constant(b)) == (a < b)


@given(polys)
def test_scalar_identities(p):
    assert 0 + p == p
    assert 1 * p == p
    assert sum([p, p]) == p.scale(2)
