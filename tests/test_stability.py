import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destab import (
    FiltrationSpec,
    InstanceError,
    PivotSet,
    SheafData,
    StabilityParam,
    UniPoly,
    check_k_semistable,
    check_splitting,
    constants,
    decide_destabilizing,
    gamma_vector,
    is_critical,
    k_of_level,
    mu_via_gamma,
    mu_via_pivots,
    objective,
    project_pivots,
    r_value,
    reduce_destabilizer,
)
from destab.pivots import ordered_tuples
from destab.stability import (
    BOUNDARY_WITNESS,
    MARGINALLY_DESTABILIZED,
    STABLE_OK,
    STRICTLY_DESTABILIZED,
)
import oracles
from util import level_set_instance, rank6, random_filtration, random_pivots, random_weights

F = Fraction


def simple(ranks, degrees, r, d, arity=2, delta=1):
    fs = FiltrationSpec(
        arity=arity,
        multiplicity=1,
        total=SheafData(rank=r, degree=d),
        steps=tuple(SheafData(rank=rk, degree=dg) for rk, dg in zip(ranks, degrees)),
    )
    return fs, StabilityParam.slope(delta)


def test_validate_filtration_errors():
    # A spec validates itself when built.
    with pytest.raises(InstanceError):
        simple([2, 1], [0, 0], 4, 0)
    with pytest.raises(InstanceError):
        simple([4], [0], 4, 0)
    with pytest.raises(InstanceError):
        StabilityParam.slope(0)


def test_substeps_keeps_only_existing_levels():
    fs, _ = simple([1, 2], [0, 0], 4, 0)
    with pytest.raises(InstanceError, match=r"^kept levels must lie in 1\.\.s$"):
        fs.substeps([0])


def test_stability_param_holds_delta_alone_and_reads_its_mode_off_its_type():
    assert [f.name for f in dataclasses.fields(StabilityParam)] == ["delta"]
    assert StabilityParam.slope(F(1, 2)).mode == "slope"
    assert StabilityParam.hilbert(UniPoly.from_coeffs([0, 1])).mode == "hilbert"


def test_constants_rank6():
    fs, _, sp = rank6()
    assert constants(fs, sp) == [F(-4), F(-12), F(-20)]


def test_constants_polynomial_mode():
    # Rank-2 bundle with one rank-1 step; all data carried by linear polynomials.
    fs = FiltrationSpec(
        arity=1,
        multiplicity=1,
        total=SheafData(rank=2, degree=0, hilbert=UniPoly.from_coeffs([2, 2])),
        steps=(SheafData(rank=1, degree=0, hilbert=UniPoly.from_coeffs([1, 1])),),
    )
    sp = StabilityParam.hilbert(UniPoly.constant(1))
    (c1,) = constants(fs, sp)
    assert c1 == UniPoly.constant(-1)
    # A slope-mode parameter on the same data needs no polynomials at all.
    fs_plain = FiltrationSpec(
        arity=1,
        multiplicity=1,
        total=SheafData(rank=2, degree=0),
        steps=(SheafData(rank=1, degree=0),),
    )
    with pytest.raises(InstanceError):
        constants(fs_plain, sp)


def test_gamma_vector_shape():
    rng = random.Random(31)
    for _ in range(200):
        fs = random_filtration(rng)
        w = random_weights(rng, fs.s)
        gamma = gamma_vector(fs, w)
        assert len(gamma) == fs.total.rank
        assert sum(gamma) == 0
        assert all(a <= b for a, b in zip(gamma, gamma[1:]))
        doubled = gamma_vector(fs, tuple(2 * x for x in w))
        assert doubled == tuple(2 * g for g in gamma)


def test_gamma_vector_two_term_example():
    fs, _ = simple([1], [0], 2, 0)
    assert gamma_vector(fs, (F(1),)) == (F(-1), F(1))


def test_r_value_all_ones_pivot():
    fs, _ = simple([1, 2, 3], [0, 0, 0], 4, 0, arity=3)
    ps = PivotSet.from_tuples([(1, 1, 1)], t=4, arity=3)
    val, piv = r_value(fs, ps, (F(1), F(1), F(1)))
    assert val == 3 * 3 and piv == (1, 1, 1)


def test_r_value_tie_breaks_lexicographically():
    fs, _ = simple([1, 2], [0, 0], 3, 0, arity=2)
    ps = PivotSet.from_tuples([(1, 3), (2, 2)], t=3, arity=2)
    # Both pivots reach R = 2 at weights (1, 1); report the smaller tuple.
    val, piv = r_value(fs, ps, (F(1), F(1)))
    assert val == 2 and piv == (1, 3)


def test_mu_routes_agree_on_rank6():
    fs, ps, _ = rank6()
    w = (F(4), F(2), F(6))
    assert mu_via_pivots(fs, ps, w) == F(-16)
    assert mu_via_gamma(fs, ps, w) == F(-16)


def test_mu_homogeneity_and_guard():
    fs, ps, _ = rank6()
    w = (F(1, 3), F(1, 6), F(1, 2))
    assert mu_via_pivots(fs, ps, tuple(5 * x for x in w)) == 5 * mu_via_pivots(fs, ps, w)
    with pytest.raises(InstanceError):
        mu_via_pivots(fs, ps, (F(1), F(1)))  # wrong number of weights


def test_mu_gamma_guard(monkeypatch):
    fs, ps, _ = rank6()
    monkeypatch.setenv("DESTAB_GUARD", "3")
    with pytest.raises(InstanceError):
        mu_via_gamma(fs, ps, (F(1), F(1), F(1)))


def test_objective_rank6_reference_weights():
    fs, ps, sp = rank6()
    w = (F(4), F(2), F(6))
    assert objective(fs, ps, w, sp) == F(-16)
    rmax, _ = r_value(fs, ps, w)
    assert rmax == 24


def test_objective_homogeneity():
    rng = random.Random(55)
    for _ in range(100):
        fs = random_filtration(rng)
        ps = random_pivots(rng, fs.arity, fs.t)
        sp = StabilityParam.slope(F(rng.randint(1, 5), rng.randint(1, 3)))
        w = random_weights(rng, fs.s)
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        assert objective(fs, ps, tuple(lam * x for x in w), sp) == lam * objective(
            fs, ps, w, sp
        )


def test_r_subadditivity_over_disjoint_covers():
    rng = random.Random(77)
    for _ in range(150):
        fs = random_filtration(rng, min_steps=2)
        ps = random_pivots(rng, fs.arity, fs.t)
        w = random_weights(rng, fs.s)
        levels = list(range(1, fs.s + 1))
        cut = rng.randint(1, fs.s - 1)
        rng.shuffle(levels)
        j, k = sorted(levels[:cut]), sorted(levels[cut:])
        r_full, _ = r_value(fs, ps, w)
        r_j, _ = r_value(fs.substeps(j), project_pivots(ps, j), tuple(w[i - 1] for i in j))
        r_k, _ = r_value(fs.substeps(k), project_pivots(ps, k), tuple(w[i - 1] for i in k))
        assert r_full <= r_j + r_k


def test_k_of_level_rank6():
    _, ps, _ = rank6()
    assert [k_of_level(ps, lvl) for lvl in (1, 2, 3)] == [2, 3, 4]
    with pytest.raises(ValueError):
        k_of_level(ps, 4)


def test_check_k_semistable_rank6():
    fs, ps, sp = rank6()
    assert check_k_semistable(fs, ps, sp) == [True, True, True]
    assert check_k_semistable(fs, ps, sp, strict=True) == [True, True, True]


def test_check_k_semistable_boundary_case():
    # c_1 = -6 and k_1 = 1 with r*delta = 6: semistable holds with equality only.
    fs, sp = simple([1], [1], 3, 0, arity=2, delta=2)
    ps = PivotSet.from_tuples([(1, 2)], t=2, arity=2)
    assert constants(fs, sp) == [F(-7)]
    assert check_k_semistable(fs, ps, sp) == [False]
    fs, sp = simple([1], [0], 3, 0, arity=2, delta=1)
    ps = PivotSet.from_tuples([(1, 2)], t=2, arity=2)
    assert constants(fs, sp) == [F(-2)]  # k=1, r*delta*k = 3: holds loosely
    assert check_k_semistable(fs, ps, sp) == [True]
    assert check_k_semistable(fs, ps, sp, strict=True) == [True]


@settings(deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([("slope", 1), ("hilbert", 1), ("hilbert", 2)]),
)
def test_value_at_a_simplex_vertex_is_the_step_condition(rng, kind):
    # At w = e_i the maximum over pivots is k_of_level(i): the value is c_i + r delta k_i.
    fs, ps, sp = level_set_instance(rng, *kind)
    r, s = fs.total.rank, fs.s
    semi, stable = check_k_semistable(fs, ps, sp), check_k_semistable(fs, ps, sp, strict=True)
    for i, c in enumerate(constants(fs, sp)):
        value = objective(fs, ps, tuple(F(int(j == i)) for j in range(s)), sp)
        assert value == c + r * k_of_level(ps, i + 1) * sp.delta
        assert (semi[i], stable[i]) == (not value < 0, value > 0)


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_minimum_is_midpoint_concave_in_delta(rng):
    # In slope mode the value is A(w) + delta B(w) for each w, so its minimum
    # m(delta) over the simplex is a minimum of affine functions: concave.
    fs, ps, _ = level_set_instance(rng, "slope")
    d1, d2 = (F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(2))

    def m(delta):
        return decide_destabilizing(fs, ps, StabilityParam.slope(delta)).min_value

    assert m((d1 + d2) / 2) >= (m(d1) + m(d2)) / 2


def test_decide_rank6_minimum():
    fs, ps, sp = rank6()
    verdict = decide_destabilizing(fs, ps, sp)
    assert verdict.classification == STRICTLY_DESTABILIZED
    assert verdict.violated
    assert verdict.min_value == F(-4, 3)
    assert verdict.witness == (F(1, 3), F(1, 6), F(1, 2))


def test_decide_rank6_subfiltration_12():
    fs, ps, sp = rank6()
    sub = decide_destabilizing(fs.substeps([1, 2]), project_pivots(ps, [1, 2]), sp)
    assert sub.classification == STABLE_OK
    assert not sub.violated
    assert sub.min_value == F(8, 3)
    assert sub.witness == (F(1, 3), F(2, 3))


def test_decide_single_top_pivot_is_linear():
    # With the pivot at the top level the value is a plain weighted sum of the
    # constants, so the verdict reads off their minimum sign.
    fs, sp = simple([1, 2], [5, -9], 3, 0, arity=2)
    ps = PivotSet.from_tuples([(3, 3)], t=3, arity=2)
    cs = constants(fs, sp)
    verdict = decide_destabilizing(fs, ps, sp)
    assert verdict.min_value == min(cs)
    assert verdict.violated == (min(cs) < 0)

    fs_ok, sp_ok = simple([1, 2], [-5, -9], 3, 0, arity=2)
    ok = decide_destabilizing(fs_ok, ps, sp_ok)
    assert ok.classification == STABLE_OK and not ok.violated


def test_decide_marginal_interior_zero():
    # Value is identically zero on the region where the first pivot wins:
    # zero minimum at strictly positive weights, so stability (not
    # semistability) is violated.
    fs, sp = simple([1, 2], [0, 0], 3, 0, arity=3)
    ps = PivotSet.from_tuples([(1, 2, 3), (2, 2, 2)], t=3, arity=3)
    semi = decide_destabilizing(fs, ps, sp, "semi")
    assert semi.classification == MARGINALLY_DESTABILIZED
    assert semi.min_value == 0 and not semi.violated
    assert all(x > 0 for x in semi.witness)
    strict = decide_destabilizing(fs, ps, sp, "stable")
    assert strict.violated


def test_decide_boundary_zero_names_subfiltration():
    # Zero minimum attained only where the second weight vanishes: the verdict
    # points at the subfiltration on step 1 instead of indicting the chain.
    fs, sp = simple([1, 2], [1, 0], 3, 4, arity=1)
    ps = PivotSet.from_tuples([(3,)], t=3, arity=1)
    assert constants(fs, sp) == [F(0), F(6)]
    verdict = decide_destabilizing(fs, ps, sp)
    assert verdict.classification == BOUNDARY_WITNESS
    assert verdict.min_value == 0
    assert verdict.boundary_support == (1,)
    assert not verdict.violated


def _near_equal_slope(rng):
    """Steps of near-equal slope, so that zero minima occur among the verdicts."""
    r = rng.randint(2, 7)
    s = rng.randint(1, min(4, r - 1))
    m = rng.randint(-2, 2)
    ranks = sorted(rng.sample(range(1, r), s))
    fs = FiltrationSpec(
        arity=rng.randint(1, 3),
        multiplicity=1,
        total=SheafData(r, m * r),
        steps=tuple(SheafData(rk, m * rk + rng.choice([-1, 0, 0, 1])) for rk in ranks),
    )
    delta = F(rng.randint(1, 3), rng.randint(1, 3))
    return fs, random_pivots(rng, fs.arity, fs.t), delta


def _as_hilbert(sd):
    return SheafData(sd.rank, sd.degree, UniPoly.from_coeffs([sd.degree, sd.rank]))


def test_slope_mode_is_hilbert_mode_with_constant_values():
    # With P = d + r x on every sheaf the x terms cancel in every constant,
    # so the hilbert decision is the slope decision with constant values.
    rng = random.Random(2015)
    classes = set()
    for _ in range(300):
        fs, ps, delta = _near_equal_slope(rng)
        hfs = FiltrationSpec(
            fs.arity, fs.multiplicity, _as_hilbert(fs.total), tuple(map(_as_hilbert, fs.steps))
        )
        for strictness in ("semi", "stable"):
            slope = decide_destabilizing(fs, ps, StabilityParam.slope(delta), strictness)
            poly = decide_destabilizing(
                hfs, ps, StabilityParam.hilbert(UniPoly.constant(delta)), strictness
            )
            assert poly.min_value == UniPoly.constant(slope.min_value)
            assert poly.witness == slope.witness
            assert poly.attaining_pivot == slope.attaining_pivot
            assert poly.classification == slope.classification
            assert poly.violated == slope.violated
            assert poly.boundary_support == slope.boundary_support
            classes.add(slope.classification)
    assert len(classes) == 4


def test_decide_rejects_bad_strictness_and_mismatch():
    fs, ps, sp = rank6()
    with pytest.raises(InstanceError):
        decide_destabilizing(fs, ps, sp, "loose")
    bad = PivotSet.from_tuples([(1, 1)], t=2, arity=2)
    with pytest.raises(InstanceError):
        decide_destabilizing(fs, bad, sp)


def test_is_critical_rank6_and_single_pivot():
    fs, ps, sp = rank6()
    assert is_critical(fs, ps, (F(4), F(2), F(6)))
    rng = random.Random(13)
    for _ in range(100):
        rfs = random_filtration(rng)
        rps = random_pivots(rng, rfs.arity, rfs.t, max_pivots=1)
        assert not is_critical(rfs, rps, random_weights(rng, rfs.s))


def test_reduce_single_pivot_chain_collapses_to_one_step():
    fs, sp = simple([1, 2, 3], [9, 9, 9], 4, 0, arity=2)
    ps = PivotSet.from_tuples([(4, 4)], t=4, arity=2)
    assert decide_destabilizing(fs, ps, sp).violated
    subset, witness, trace = reduce_destabilizer(fs, ps, sp)
    assert len(subset) == 1
    assert trace[0][1]  # the very first removal already succeeds


def test_reduce_requires_violation():
    fs, ps, sp = rank6()
    sub_fs = fs.substeps([1, 2])
    with pytest.raises(InstanceError):
        reduce_destabilizer(sub_fs, project_pivots(ps, [1, 2]), sp)


def test_check_splitting_single_pivot_always_splits():
    fs, sp = simple([1, 2], [0, 0], 3, 0, arity=2)
    ps = PivotSet.from_tuples([(1, 2)], t=3, arity=2)
    splits, ray = check_splitting(fs, ps)
    assert splits and ray is not None and sum(ray) == 1


def test_check_splitting_finds_no_split_at_arity_four():
    # No antichain of arity <= 3 with t <= 5 fails to split; this one does.
    fs, _ = simple([1, 2, 3], [0, 0, 0], 4, 0, arity=4)
    pivots = [(1, 1, 3, 4), (1, 2, 2, 4), (1, 2, 3, 3), (2, 2, 2, 2)]
    ps = PivotSet.from_tuples(pivots, t=4, arity=4)
    assert check_splitting(fs, ps) == oracles.check_splitting(fs, ps) == (False, None)
    # The oracle agrees on every antichain of 2-4 such pivots and on a seeded pool.
    instances = [
        (fs, chain)
        for n in (2, 3, 4)
        for tuples in combinations(ordered_tuples(4, 4), n)
        if len((chain := PivotSet.from_tuples(tuples, t=4, arity=4)).pivots) == n
    ]
    rng = random.Random(4242)
    instances += [
        level_set_instance(rng, "hilbert" if k % 3 == 2 else "slope")[:2] for k in range(40)
    ]
    verdicts = [check_splitting(fs, ps) for fs, ps in instances]
    assert verdicts == [oracles.check_splitting(fs, ps) for fs, ps in instances]
    assert len(verdicts) == 315 + 40
    assert sum(not splits for splits, _ in verdicts[:315]) == 18


def test_check_splitting_consistency_random():
    # Whatever the verdict, it must agree with a brute-force scan of small-
    # denominator simplex points against the pivot-sum equalities.
    rng = random.Random(2024)
    from itertools import product

    def coeffs_of(ps, s):
        return [tuple(sum(1 for c in p if c <= i) for i in range(1, s + 1)) for p in ps.pivots]

    for _ in range(120):
        fs = random_filtration(rng, max_steps=3)
        ps = random_pivots(rng, fs.arity, fs.t)
        splits, ray = check_splitting(fs, ps)
        xs = coeffs_of(ps, fs.s)
        if splits:
            assert ray is not None and all(b >= 0 for b in ray) and sum(ray) == 1
            sums = {sum(x * b for x, b in zip(coeff, ray)) for coeff in xs}
            assert len(sums) == 1
        else:
            denom = 4
            for point in product(range(denom + 1), repeat=fs.s):
                if sum(point) != denom:
                    continue
                beta = tuple(F(x, denom) for x in point)
                sums = {sum(x * b for x, b in zip(coeff, beta)) for coeff in xs}
                assert len(sums) > 1


def test_prune_never_raises_the_value():
    rng = random.Random(101)
    checked = 0
    for _ in range(300):
        fs = random_filtration(rng)
        ps = random_pivots(rng, fs.arity, fs.t)
        sp = StabilityParam.slope(F(rng.randint(1, 4), rng.randint(1, 3)))
        kept = [lvl for lvl, c in enumerate(constants(fs, sp), start=1) if c < 0]
        if kept:  # no spec has zero steps
            pruned_fs, pruned_ps = fs.substeps(kept), project_pivots(ps, kept)
        for _ in range(20):
            w = random_weights(rng, fs.s)
            full = objective(fs, ps, w, sp)
            if not kept:
                assert full >= 0
                continue
            restricted = tuple(w[lvl - 1] for lvl in kept)
            assert objective(pruned_fs, pruned_ps, restricted, sp) <= full
            checked += 1
    assert checked > 1000
