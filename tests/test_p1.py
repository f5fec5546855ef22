import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import oracles
import pytest

from destab import p1
from destab.model import InstanceError, StabilityParam
from destab.p1 import (
    P1Tensor,
    _admissible_multisets,
    _degree_triples,
    _flag_filtration,
    _flag_pivot_set,
    _flag_vertices,
    classify,
    enumerate_two_pivot_matrices,
    flag_pivots,
    is_semistable_p1,
    k_singles,
    tensor_count,
    validate_p1,
)
from destab.stability import check_k_semistable, decide_destabilizing
from util import level_set_instance


def tensor(degrees, support, delta=1):
    return P1Tensor.make(degrees, support, delta)


def test_validate_rejects_bad_data():
    with pytest.raises(InstanceError):
        validate_p1(tensor((0, 0, 1), [(1, 1, 1)]))  # degrees do not sum to 0
    with pytest.raises(InstanceError):
        validate_p1(tensor((1, 0, -1), [(1, 1, 1)]))  # not sorted
    with pytest.raises(InstanceError):
        validate_p1(tensor((0, 0, 0), []))  # empty support
    with pytest.raises(InstanceError):
        validate_p1(tensor((0, 0, 0), [(1, 1, 1)], delta=0))
    with pytest.raises(InstanceError):
        validate_p1(tensor((-2, 1, 1), [(2, 3, 3)]))  # degree sum 3 > 0
    with pytest.raises(InstanceError):
        validate_p1(tensor((0, 0, 0), [(1, 4, 4)]))  # index out of range


def test_support_is_canonicalized():
    t = tensor((0, 0, 0), [(3, 1, 2), (2, 1, 3)])
    assert t.support == frozenset({(1, 2, 3)})


def test_flag_pivots_examples():
    # Cubic supported on the single mixed monomial: in the flag through L_1
    # then L_1 + L_2 it survives with one factor in each step.
    t = tensor((0, 0, 0), [(1, 2, 3)])
    assert flag_pivots(t, 1, 2).pivots == ((1, 2, 3),)
    # Through L_3 first, the same monomial puts its single 3 at the bottom.
    assert flag_pivots(t, 3, 2).pivots == ((1, 2, 3),)
    # Through L_2 then L_2 + L_1: the 3 only lives at the top.
    assert flag_pivots(t, 2, 1).pivots == ((1, 2, 3),)


def test_flag_pivots_match_the_full_table_oracle():
    multisets = list(combinations_with_replacement((1, 2, 3), 3))
    supports = [c for n in range(1, 11) for c in combinations(multisets, n)]
    assert len(supports) == 1023
    for support in supports:
        t = tensor((0, 0, 0), support)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j:
                    assert flag_pivots(t, i, j) == oracles.flag_pivots(t, i, j)


def test_flag_pivots_two_pivot_case():
    t = tensor((0, 0, 0), [(1, 2, 3), (2, 2, 2)])
    assert flag_pivots(t, 1, 2).pivots == ((1, 2, 3), (2, 2, 2))


def test_flag_pivots_rejects_bad_indices():
    t = tensor((0, 0, 0), [(1, 1, 1)])
    with pytest.raises(InstanceError):
        flag_pivots(t, 1, 1)
    with pytest.raises(InstanceError):
        flag_pivots(t, 0, 2)


def test_flag_pivots_leaves_a_malformed_support_to_from_tuples():
    # Only sets of ordered 3-tuples are cached; any other set is still judged by
    # PivotSet.from_tuples, on every call.
    t = tensor((0, 0, 0), [(1, 2)])
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^pivots\[0\]: tuple \(1, 2\) does not have arity 3$"):
            flag_pivots(t, 1, 2)


def test_k_values():
    t = tensor((0, 0, 0), [(1, 1, 2), (2, 3, 3)])
    assert k_singles(t) == (2, 1, 2)


def test_trivial_bundle_diagonal_support_is_semistable():
    verdict = is_semistable_p1(tensor((0, 0, 0), [(1, 2, 3)]))
    assert verdict.semistable
    assert all(not v.violated for _, _, v in verdict.flags)
    assert all(all(v.step_conditions) for _, _, v in verdict.flags)


def test_trivial_bundle_concentrated_support_is_not_semistable():
    # Everything on L_1^3: the flag through L_2 kills all factors, k = 0.
    verdict = is_semistable_p1(tensor((0, 0, 0), [(1, 1, 1)]))
    assert not verdict.semistable


def test_semistable_only_if_all_k_positive():
    # One direction of the length-one test is exact: a vanishing k_i forces a
    # violated step condition, hence non-semistability.
    bound_checked = 0
    rows = classify(Fraction(1), 0)
    for row in rows:
        if min(row.k_singles) < 1:
            assert not row.semistable
            bound_checked += 1
    assert bound_checked > 0


def test_two_factor_flag_counterexample_to_length_one_sufficiency():
    # All per-summand counts are positive, yet the two-step flag through L_3
    # and then L_3 + L_1 destabilizes: length-one conditions do not suffice.
    t = tensor((0, 0, 0), [(1, 1, 1), (2, 2, 3)])
    assert min(k_singles(t)) >= 1
    verdict = is_semistable_p1(t)
    assert not verdict.semistable
    flag = {(i, j): v for i, j, v in verdict.flags}
    bad = flag[(3, 1)]
    assert bad.violated and bad.min_value == Fraction(-1)
    assert flag_pivots(t, 3, 1).pivots == ((1, 3, 3), (2, 2, 2))
    # Each individual step condition nevertheless passes.
    assert all(all(v.step_conditions) for _, _, v in verdict.flags)


def test_nontrivial_bundle_single_support_violates_middle_flag():
    t = tensor((-2, 1, 1), [(1, 3, 3)])
    verdict = is_semistable_p1(t)
    assert not verdict.semistable
    conds = {(i, j): v.step_conditions for i, j, v in verdict.flags}
    assert not conds[(2, 1)][0]  # the L_2 step fails its length-one condition


def test_nontrivial_bundle_rank_two_step_always_destabilizes():
    # Adding the second admissible monomial fixes both line-bundle conditions
    # but the flag through L_2 then L_2 + L_3 still destabilizes.
    t = tensor((-2, 1, 1), [(1, 3, 3), (1, 2, 2)])
    verdict = is_semistable_p1(t)
    assert not verdict.semistable
    flag = {(i, j): v for i, j, v in verdict.flags}
    assert flag[(2, 3)].violated or flag[(3, 2)].violated


def test_enumerate_two_pivot_matrices():
    pairs = {frozenset(pair) for pair in enumerate_two_pivot_matrices()}
    assert pairs == {
        frozenset({(1, 1, 3), (1, 2, 2)}),
        frozenset({(1, 1, 3), (2, 2, 2)}),
        frozenset({(1, 2, 3), (2, 2, 2)}),
        frozenset({(1, 3, 3), (2, 2, 2)}),
        frozenset({(1, 3, 3), (2, 2, 3)}),
    }


def test_classify_row_shape():
    rows = classify(Fraction(1), 0)
    assert len(rows) == 1023 == tensor_count(0)  # all nonempty subsets of the ten cubic monomials
    assert all(row.degrees == (0, 0, 0) for row in rows)
    with pytest.raises(InstanceError):
        classify(Fraction(1), -1)


def test_tensor_count_sums_the_nonempty_admissible_supports():
    for bound in range(30):
        triples = _degree_triples(bound)
        assert tensor_count(bound) == sum(2 ** len(_admissible_multisets(d)) - 1 for d in triples)
    assert [tensor_count(b) for b in (2, 50, 100)] == [1529, 107873, 410973]


def test_classify_respects_degree_admissibility():
    for row in classify(Fraction(1), 1):
        d = row.degrees
        for m in row.support:
            assert sum(d[i - 1] for i in m) <= 0


def test_stable_verdict_reads_off_the_minima_alone():
    # Four flags have a zero minimum attained only at one end of their weight
    # segment, where the strict step condition fails; each violates stability.
    verdict = is_semistable_p1(tensor((0, 0, 0), [(1, 1, 2), (2, 3, 3)], Fraction(1, 2)), "stable")
    assert not verdict.semistable
    zeros = {(i, j): v for i, j, v in verdict.flags if v.min_value == 0}
    assert set(zeros) == {(1, 3), (2, 1), (2, 3), (3, 1)}
    assert all(v.classification == "boundary-witness" for v in zeros.values())
    assert all(v.violated for v in zeros.values())
    conds = {(i, j): v.step_conditions for i, j, v in verdict.flags}
    assert all(not all(conds[flag]) for flag in zeros)


def _bounded_universe(bound):
    return [
        (degrees, support)
        for degrees in _degree_triples(bound)
        for n in range(1, len(_admissible_multisets(degrees)) + 1)
        for support in combinations(_admissible_multisets(degrees), n)
    ]


@pytest.mark.parametrize("strictness", ["semi", "stable"])
def test_minima_verdict_matches_the_step_condition_route(strictness):
    # The step-condition route: no flag violated and every step condition holds.
    # Each flag follows the one rule, and a failing step condition violates it,
    # so the verdict is also "no flag violated".
    for degrees, support in _bounded_universe(2)[::17]:
        for delta in (Fraction(1, 2), Fraction(1), Fraction(2)):
            verdict = is_semistable_p1(tensor(degrees, support, delta), strictness)
            for _, _, v in verdict.flags:
                zero_fails = strictness == "stable" and v.min_value == 0
                assert v.violated == (v.min_value < 0 or zero_fails)
                assert all(v.step_conditions) or v.violated
            expected = all(not v.violated and all(v.step_conditions) for _, _, v in verdict.flags)
            assert verdict.semistable == expected


def test_one_stability_rule_on_the_level_set_pool():
    # Stable mode fails on any zero minimum, and a failing strict step
    # condition is a violation; the pool is built so that zero minima occur.
    rng = random.Random(10)
    for kind in [("slope",), ("hilbert",), ("hilbert", 2)] * 40:
        fs, ps, sp = level_set_instance(rng, *kind)
        verdict = decide_destabilizing(fs, ps, sp, "stable")
        assert verdict.violated == (not verdict.min_value > 0)
        assert all(check_k_semistable(fs, ps, sp, strict=True)) or verdict.violated


@pytest.mark.parametrize("strictness", ["semi", "stable"])
def test_step_conditions_match_check_k_semistable_flag_by_flag(strictness):
    # p1 reads each step condition off its flag's decide; the oracle computes
    # it from the formula c_i + r delta k_i.
    for degrees, support in _bounded_universe(2)[::11]:
        for delta in (Fraction(1, 2), Fraction(1), Fraction(2)):
            t = tensor(degrees, support, delta)
            sp = StabilityParam.slope(delta)
            for i, j, v in is_semistable_p1(t, strictness).flags:
                fs, ps = _flag_filtration(t, i, j), flag_pivots(t, i, j)
                formula = oracles.check_k_semistable(fs, ps, sp, strictness == "stable")
                assert list(v.step_conditions) == formula


def test_classify_builds_a_flag_filtration_only_for_a_decide(monkeypatch):
    # Flags are keyed by (d_i, d_j, pivots), so classify builds one
    # filtration per distinct flag: the 222 of the bound-2 universe.
    calls = {"_flag_filtration": 0, "decide_destabilizing": 0}

    def counting(name):
        inner = getattr(p1, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(p1, name, counting(name))
    classify(Fraction(1), 2)
    assert calls == {"_flag_filtration": 222, "decide_destabilizing": 222}


def test_classify_rows_match_per_tensor_verdicts():
    # classify decides each distinct flag once across the whole call.
    for row in classify(Fraction(1), 0):
        assert row.semistable == is_semistable_p1(tensor(row.degrees, row.support)).semistable


def test_ranked_decide_matches_the_lp_on_every_bound_2_flag():
    # p1 ranks the cached vertices of each flag's epigraph instead of solving
    # an LP; the LP decide is the oracle, on every distinct flag of the
    # bound-2 universe, at five deltas and in both strictnesses.  The verdicts
    # carry their step conditions, which follow the formula as
    # check_k_semistable's do.
    flags = {
        (_flag_filtration(t, i, j), flag_pivots(t, i, j)): None
        for t in (tensor(degrees, support) for degrees, support in _bounded_universe(2))
        for i, j in permutations((1, 2, 3), 2)
    }
    assert len(flags) == 222 and len({ps for _, ps in flags}) == 15
    for delta in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)):
        sp = StabilityParam.slope(delta)
        for fs, ps in flags:
            for strictness in ("semi", "stable"):
                strict = strictness == "stable"
                formula = oracles.check_k_semistable(fs, ps, sp, strict)
                lp = decide_destabilizing(fs, ps, sp, strictness)
                ranked = decide_destabilizing(fs, ps, sp, strictness, ranked=_flag_vertices(ps))
                assert repr(ranked) == repr(lp)
                assert list(lp.step_conditions) == check_k_semistable(fs, ps, sp, strict) == formula


def test_flag_caches_stay_on_their_finite_domains():
    # One epigraph per antichain of ordered 3-tuples over 1..3, and one pivot
    # set per nonempty set of those ten tuples.
    classify(Fraction(1), 2)
    assert _flag_vertices.cache_info().currsize == 15
    assert _flag_pivot_set.cache_info().currsize <= 1023


def test_hull_oracle_counts_the_trivial_bundle_supports():
    # On the trivial bundle d = 0 lies in the hull of the weights of 903 of the
    # 1023 supports, and in its interior for 644 of them.
    multisets = list(combinations_with_replacement((1, 2, 3), 3))
    tensors = [tensor((0, 0, 0), c) for n in range(1, 11) for c in combinations(multisets, n)]
    assert sum(map(oracles.p1_hull, tensors)) == 903
    assert sum(oracles.p1_hull(t, strict=True) for t in tensors) == 644


def test_hull_oracle_matches_the_flag_decides():
    # The torus hull test that the README derives for this model, against the
    # six flag decides on every 13th tensor of degree bound 2, at three deltas
    # and in both strictnesses.  By its d = 0 corollary no admissible tensor
    # off the trivial bundle passes.
    seen = set()
    for degrees, support in _bounded_universe(2)[::13]:
        for delta in (Fraction(1, 3), Fraction(1), Fraction(7, 3)):
            t = tensor(degrees, support, delta)
            for strictness in ("semi", "stable"):
                hull = oracles.p1_hull(t, strictness == "stable")
                assert hull == is_semistable_p1(t, strictness).semistable
                seen.add((strictness, any(degrees), hull))
    assert seen == {(strictness, moved, hull) for strictness in ("semi", "stable")
                    for moved, hull in ((False, False), (False, True), (True, False))}
