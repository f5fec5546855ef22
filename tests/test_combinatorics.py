from itertools import combinations, combinations_with_replacement

import pytest

from destab.combinatorics import (
    brute_maxp,
    f_atx,
    gaussian_binomial,
    maxp,
    partition_count,
    sum_check,
    verify_pascal,
    verify_q_identity,
)
from destab.pivots import dominated, ordered_tuples


def brute_bounded_partitions(a: int, t: int, x: int) -> int:
    return sum(
        1
        for tup in combinations_with_replacement(range(1, t + 1), a)
        if sum(tup) == x
    )


def test_partition_count_against_enumeration():
    for k in range(0, 6):
        for n in range(0, 15):
            expected = brute_bounded_partitions(k, n, n) if k > 0 else int(n == 0)
            assert partition_count(k, n) == expected


def test_partition_count_known_values():
    # partitions of 6 into exactly 3 parts: 4+1+1, 3+2+1, 2+2+2.
    assert partition_count(3, 6) == 3
    assert partition_count(1, 9) == 1
    assert partition_count(5, 3) == 0


def test_f_against_enumeration():
    for a in range(1, 7):
        for t in range(1, 7):
            for x in range(0, a * t + 3):
                assert f_atx(a, t, x) == brute_bounded_partitions(a, t, x)


def test_f_symmetry():
    # Complementing every part (p -> t+1-p) reflects x about a(t+1)/2.
    for a in range(1, 6):
        for t in range(1, 6):
            for x in range(a, a * t + 1):
                assert f_atx(a, t, x) == f_atx(a, t, a * (t + 1) - x)


def test_f_rejects_bad_arguments():
    with pytest.raises(ValueError):
        f_atx(0, 3, 1)
    with pytest.raises(ValueError):
        maxp(2, 0)


def test_maxp_small_closed_forms():
    assert all(maxp(1, t) == 1 for t in range(1, 10))
    assert [maxp(2, t) for t in range(1, 8)] == [1, 1, 2, 2, 3, 3, 4]
    # The middle level is the largest: the sweep over every level agrees.
    for a in range(1, 9):
        for t in range(1, 41):
            assert maxp(a, t) == max(f_atx(a, t, x) for x in range(a, a * t + 1))


def test_maxp_equals_exhaustive_search():
    from math import comb

    for a in range(1, 5):
        for t in range(1, 7):
            if comb(t + a - 1, a) <= 24:
                assert maxp(a, t) == brute_maxp(a, t)


def test_brute_maxp_guard():
    with pytest.raises(ValueError):
        brute_maxp(4, 6)  # 126 tuples exceeds the default guard


def test_brute_maxp_guard_override(monkeypatch):
    monkeypatch.setenv("DESTAB_GUARD", "40")
    assert brute_maxp(2, 7) == 4  # 28 tuples, allowed under the raised guard
    monkeypatch.setenv("DESTAB_GUARD", "10")
    with pytest.raises(ValueError):
        brute_maxp(2, 5)


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(1, 0) == (1,)
    assert gaussian_binomial(2, 1) == (1, 1)
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(5, 2) == (1, 1, 2, 2, 2, 1, 1)


def test_gaussian_binomial_symmetry_and_rejection():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


def test_q_identity_failure_reporting():
    ok, lhs, rhs = verify_q_identity(3, 3)
    assert ok and lhs == rhs
    assert sum(lhs) == 10  # plain binomial (5 choose 3) at q=1


def test_pascal_recurrence_requires_valid_range():
    with pytest.raises(ValueError):
        verify_pascal(1, 3, 2)


def test_level_sets_are_antichains_of_the_right_size():
    for a in range(1, 5):
        for t in range(1, 5):
            for x in range(a, a * t + 1):
                level = [tup for tup in ordered_tuples(a, t) if sum(tup) == x]
                assert len(level) == f_atx(a, t, x)
                for p, q in combinations(level, 2):
                    assert not dominated(p, q) and not dominated(q, p)


def test_sum_check_small():
    assert sum_check(3, 3)
    assert sum_check(1, 5)
