"""Shared fixtures-in-spirit: seeded random instance generators and known data."""

from __future__ import annotations

import random
from fractions import Fraction

from destab import FiltrationSpec, PivotSet, SheafData, StabilityParam, UniPoly
from destab.pivots import ordered_tuples

# A rank-6 bundle with three strictly destabilizing steps; the smallest known
# instance where no proper subfiltration destabilizes.
RANK6_INSTANCE = {
    "mode": "slope",
    "arity": 4,
    "multiplicity": 1,
    "total": {"rank": 6, "degree": 36},
    "steps": [
        {"rank": 1, "degree": 6},
        {"rank": 3, "degree": 18},
        {"rank": 5, "degree": 30},
    ],
    "delta": "1",
    "pivots": [[1, 1, 4, 4], [2, 2, 2, 4], [3, 3, 3, 3]],
}


def rank6() -> tuple[FiltrationSpec, PivotSet, StabilityParam]:
    fs = FiltrationSpec(
        arity=4,
        multiplicity=1,
        total=SheafData(rank=6, degree=36),
        steps=(
            SheafData(rank=1, degree=6),
            SheafData(rank=3, degree=18),
            SheafData(rank=5, degree=30),
        ),
    )
    ps = PivotSet.from_tuples(
        [(1, 1, 4, 4), (2, 2, 2, 4), (3, 3, 3, 3)], t=4, arity=4
    )
    return fs, ps, StabilityParam.slope(1)


def random_filtration(
    rng: random.Random,
    max_rank: int = 8,
    max_arity: int = 4,
    max_steps: int = 4,
    min_steps: int = 1,
    degree_span: int = 10,
) -> FiltrationSpec:
    r = rng.randint(min_steps + 1, max_rank)
    s = rng.randint(min_steps, min(max_steps, r - 1))
    ranks = sorted(rng.sample(range(1, r), s))
    return FiltrationSpec(
        arity=rng.randint(1, max_arity),
        multiplicity=rng.randint(1, 3),
        total=SheafData(rank=r, degree=rng.randint(-degree_span, degree_span)),
        steps=tuple(
            SheafData(rank=rk, degree=rng.randint(-degree_span, degree_span))
            for rk in ranks
        ),
    )


def random_pivots(
    rng: random.Random, arity: int, t: int, max_pivots: int = 4
) -> PivotSet:
    pool = list(ordered_tuples(arity, t))
    chosen = rng.sample(pool, rng.randint(1, min(max_pivots, len(pool))))
    return PivotSet.from_tuples(chosen, t=t, arity=arity)


def random_weights(rng: random.Random, s: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(s)
    )


def random_delta(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 8), rng.randint(1, 4))


def level_set_instance(rng: random.Random, mode: str, degree: int = 1):
    """s <= 4 steps of near-equal slope, so that zero minima occur, and pivots
    from one level set (an antichain).

    In hilbert mode the polynomials are linear with leading coefficient the
    rank, or, at degree 2, quadratic with leading coefficient the rank or, for
    some steps, 0.  The rank-proportional coefficients cancel in the constants,
    so the LP's leading cost row is 0 except at the steps of lower degree: it
    must keep those at weight 0, and the next row decides among the rest."""
    s, arity = rng.randint(1, 4), rng.randint(2, 3)
    middle = arity * (s + 2) // 2
    x = rng.randint(middle - 1, middle + 1)
    tuples = [tup for tup in ordered_tuples(arity, s + 1) if sum(tup) == x]
    ps = PivotSet.from_tuples(rng.sample(tuples, min(4, len(tuples))), t=s + 1, arity=arity)
    r = rng.randint(s + 1, 7)
    m = rng.randint(-2, 2)
    linear = rng.randint(-1, 2) if degree == 2 else 1

    def datum(rank, deg, quadratic=1):
        coeffs = [deg + rng.randint(0, 2) * rank, rank * linear]
        if degree == 2:
            coeffs.append(rank * quadratic)
        return SheafData(rank, deg, UniPoly.from_coeffs(coeffs) if mode == "hilbert" else None)

    ranks = sorted(rng.sample(range(1, r), s))
    steps = [
        datum(rk, m * rk + rng.choice([-1, 0, 0, 1]), rng.choice([0, 1, 1]) if degree == 2 else 1)
        for rk in ranks
    ]
    fs = FiltrationSpec(arity, 1, datum(r, m * r), tuple(steps))
    delta = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    if mode == "hilbert":
        return fs, ps, StabilityParam.hilbert(UniPoly.from_coeffs([rng.randint(-1, 1), delta]))
    return fs, ps, StabilityParam.slope(delta)
