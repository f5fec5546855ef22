"""Partition counts, bounded-partition level sizes, maximal antichains, q-binomials.

The level-size function f(a, t, x) counts partitions of x into exactly a parts
each at most t; its maximum over x is the largest antichain in the poset of
ordered a-tuples over 1..t.  The q-binomial coefficient packages the same
counts as polynomial coefficients, computed here by an independent route
(exact polynomial division) so the identity checks are genuine cross-checks.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .model import guard_limit
from .pivots import Tuple_, dominated, ordered_tuples

QPoly = tuple[int, ...]  # nonnegative integer coefficients, constant term first


@lru_cache(maxsize=None)
def partition_count(k: int, n: int) -> int:
    """Number of partitions of n into exactly k parts: those of m = n - k into
    parts of at most k, counted one part size at a time in min(k, m) * m steps."""
    m = n - k
    if k < 0 or m < 0 or (k == 0 and m > 0):
        return 0
    ways = [1] + [0] * m
    for part in range(1, min(k, m) + 1):
        for j in range(part, m + 1):
            ways[j] += ways[j - part]
    return ways[m]


@lru_cache(maxsize=None)
def f_atx(a: int, t: int, x: int) -> int:
    """Partitions of x into exactly a parts each at most t; 0 outside [a, a*t]."""
    if a < 1 or t < 1:
        raise ValueError("a and t must be >= 1")
    if x < a or x > a * t:
        return 0
    if a == 1:
        return 1  # 1 <= x <= t already holds here
    if t == 1:
        return 1  # x == a already holds here
    if a >= t:  # conjugate: x - a fills an a x (t - 1) box as well as a (t - 1) x a one
        return f_atx(t - 1, a + 1, x - a + t - 1)
    overflow = sum(f_atx(a - 1, k, x - k) for k in range(t + 1, x - a + 2))
    return partition_count(a, x) - overflow


def maxp(a: int, t: int) -> int:
    """Largest possible number of maximal elements of a subset of ordered tuples.

    f(a, t, .) is the coefficient list of a Gaussian binomial, which is symmetric
    and unimodal (Sylvester), so its middle level is a largest antichain."""
    return f_atx(a, t, a * (t + 1) // 2)


def brute_maxp(a: int, t: int) -> int:
    """Maximum antichain size by exhaustive search; oracle for maxp.

    Guarded by instance size (default 24 tuples, DESTAB_GUARD overrides).
    """
    tuples = list(ordered_tuples(a, t))
    limit = guard_limit(24)
    if len(tuples) > limit:
        raise ValueError(
            f"instance too large for exhaustive search: {len(tuples)} tuples > {limit}"
        )
    incomparable = {
        p: frozenset(
            q for q in tuples if q != p and not dominated(p, q) and not dominated(q, p)
        )
        for p in tuples
    }
    best = 0

    def search(candidates: list[Tuple_], size: int) -> None:
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        head, rest = candidates[0], candidates[1:]
        search([c for c in rest if c in incomparable[head]], size + 1)
        search(rest, size)

    search(tuples, 0)
    return best


def _qint(n: int) -> list[int]:
    """[n]_q = 1 + q + ... + q^(n-1), for n >= 1."""
    return [1] * n


def _pmul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _pdivexact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c, rem = divmod(num[i + len(den) - 1], den[-1])
        if rem:
            raise ArithmeticError("division is not exact")
        quot[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("division leaves a remainder")
    return quot


def gaussian_binomial(n: int, k: int) -> QPoly:
    """q-binomial coefficient as an integer polynomial, by exact division."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    k = min(k, n - k)  # (n choose k) = (n choose n - k): multiply the shorter side
    num: list[int] = [1]
    den: list[int] = [1]
    for i in range(k):
        num = _pmul(num, _qint(n - i))
        den = _pmul(den, _qint(i + 1))
    return tuple(_pdivexact(num, den))


def verify_q_identity(a: int, t: int) -> tuple[bool, QPoly, QPoly]:
    """Compare the q-binomial (a+t-1 choose a) with the generating polynomial of f."""
    lhs = gaussian_binomial(a + t - 1, a)
    rhs = tuple(f_atx(a, t, x) for x in range(a, a * t + 1))
    return lhs == rhs, lhs, rhs


def verify_pascal(a: int, t: int, x: int) -> bool:
    """Pascal-like recurrence f(a,t,x) = f(a,t-1,x) + f(a-1,t,x-t)."""
    if a < 2 or t < 2:
        raise ValueError("recurrence needs a >= 2 and t >= 2")
    return f_atx(a, t, x) == f_atx(a, t - 1, x) + f_atx(a - 1, t, x - t)


def sum_check(a: int, t: int) -> bool:
    """q=1 specialization: sum of f equals a plain binomial, maximum at a(t+1)/2."""
    values = {x: f_atx(a, t, x) for x in range(a, a * t + 1)}
    if sum(values.values()) != math.comb(a + t - 1, a):
        return False
    xm = a * (t + 1) // 2
    return values[xm] == max(values.values())
