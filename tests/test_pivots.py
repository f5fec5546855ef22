import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from destab.pivots import (
    PivotSet,
    dominated,
    matrix_from_pivots,
    ordered_tuples,
    project_pivots,
)
from util import random_pivots


def small_posets():
    for a in (1, 2, 3):
        for t in (1, 2, 3, 4):
            yield a, t, list(ordered_tuples(a, t))


def test_order_is_reflexive_antisymmetric_transitive():
    for _, _, tuples in small_posets():
        for p in tuples:
            assert dominated(p, p)
        for p, q in combinations(tuples, 2):
            assert not (dominated(p, q) and dominated(q, p))
        for p in tuples:
            for q in tuples:
                for r in tuples:
                    if dominated(p, q) and dominated(q, r):
                        assert dominated(p, r)


def test_ordered_tuples_are_sorted_and_counted():
    from math import comb

    for a, t, tuples in small_posets():
        assert len(tuples) == comb(t + a - 1, a)
        assert all(tup == tuple(sorted(tup)) for tup in tuples)
        assert len(set(tuples)) == len(tuples)


def test_pivot_set_rejects_bad_tuples():
    with pytest.raises(ValueError):
        PivotSet(t=3, arity=2, pivots=((2, 1),))  # decreasing
    with pytest.raises(ValueError):
        PivotSet(t=3, arity=2, pivots=((1, 4),))  # entry out of range
    with pytest.raises(ValueError):
        PivotSet(t=3, arity=2, pivots=((1, 2, 3),))  # wrong arity
    with pytest.raises(ValueError):
        PivotSet.from_tuples([], t=3, arity=2)


def test_from_tuples_keeps_only_maximal():
    ps = PivotSet.from_tuples([(1, 3), (2, 2), (2, 3), (3, 3)], t=3, arity=2)
    # (2,3) and (3,3) lie below both survivors; (1,3) and (2,2) are incomparable.
    assert ps.pivots == ((1, 3), (2, 2))


def test_matrix_round_trip_random():
    rng = random.Random(20240811)
    for _ in range(500):
        a = rng.randint(1, 4)
        t = rng.randint(2, 5)
        ps = random_pivots(rng, a, t)
        table = matrix_from_pivots(ps)
        assert PivotSet.from_tuples([tup for tup, one in table.items() if one], t=t, arity=a) == ps
        # Downward closure: a 1-entry stays 1 under coordinatewise increase.
        for tup, one in table.items():
            if one:
                for q in ordered_tuples(a, t):
                    if dominated(q, tup):
                        assert table[q] == 1


def test_project_identity():
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randint(1, 4)
        t = rng.randint(2, 5)
        ps = random_pivots(rng, a, t)
        assert project_pivots(ps, range(1, t)) == ps


def test_project_single_level_counts():
    # Keeping level l sends each coordinate <= l to 1 and the rest to the top.
    ps = PivotSet.from_tuples([(1, 2, 4), (2, 3, 3)], t=4, arity=3)
    proj = project_pivots(ps, [2])
    assert proj.t == 2
    assert proj.pivots == ((1, 1, 2),)  # (1,2,4)->(1,1,2), (2,3,3)->(1,2,2) below it


@given(st.randoms(use_true_random=False))
def test_project_pivots_composes(rng):
    # Projecting onto `outer`, then onto `inner` of the result, projects onto
    # the original levels that `inner` names: the lifts nest, and the maxima of
    # a monotone image are the images of maxima.
    t = rng.randint(2, 7)
    ps = random_pivots(rng, rng.randint(1, 4), t, max_pivots=5)
    outer = sorted(rng.sample(range(1, t), rng.randint(0, t - 1)))
    inner = sorted(rng.sample(range(1, len(outer) + 1), rng.randint(0, len(outer))))
    direct = project_pivots(ps, [outer[k - 1] for k in inner])
    assert project_pivots(project_pivots(ps, outer), inner) == direct


def test_project_rejects_bad_levels():
    ps = PivotSet.from_tuples([(1, 2)], t=3, arity=2)
    with pytest.raises(ValueError):
        project_pivots(ps, [3])  # the top level cannot be a kept step


def test_project_preserves_cumulative_counts():
    rng = random.Random(99)
    for _ in range(200):
        a = rng.randint(1, 4)
        t = rng.randint(3, 5)
        ps = random_pivots(rng, a, t)
        keep = sorted(rng.sample(range(1, t), rng.randint(1, t - 1)))
        proj = project_pivots(ps, keep)
        # Each retained level keeps its cumulative count for some source pivot,
        # and never exceeds the source maximum.
        for new_level, old_level in enumerate(keep, start=1):
            old_max = max(sum(1 for c in p if c <= old_level) for p in ps.pivots)
            new_max = max(sum(1 for c in p if c <= new_level) for p in proj.pivots)
            assert new_max == old_max
