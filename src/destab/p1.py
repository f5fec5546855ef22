"""Split rank-3 degree-0 decorated bundles on the projective line.

The bundle is a sum of three line bundles with degrees summing to zero; the
cubic decoration is described by its support: the set of degree-3 monomials in
the summands on which it is nonzero.  A nonzero map from such a summand to the
trivial bundle exists exactly when the summand's degree is nonpositive.
Semistability reduces to the six flag filtrations 0 < L_i < L_i + L_j < E.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

from .model import FiltrationSpec, InstanceError, SheafData, StabilityParam, clip
from .pivots import PivotSet, Tuple_, dominated, ordered_tuples
from .stability import CheckVerdict, RankedVertices, _decide, ranked_vertices, violates

ARITY = 3
RANK = 3

Multiset = tuple[int, int, int]  # sorted summand indices in {1,2,3}


@dataclass(frozen=True)
class P1Tensor:
    degrees: tuple[int, int, int]
    support: frozenset[Multiset]
    delta: Fraction = field(default=Fraction(1))

    @staticmethod
    def make(degrees, support, delta=1) -> "P1Tensor":
        return P1Tensor(
            degrees=tuple(degrees),
            support=frozenset(tuple(sorted(m)) for m in support),
            delta=Fraction(delta),
        )


def validate_p1(tensor: P1Tensor) -> None:
    """Check the tensor, raising on the first fault with its JSON path."""
    d = list(tensor.degrees)
    if len(d) != 3 or sum(d) != 0:
        raise InstanceError(f"degrees: expected three integers summing to 0, got {clip(str(d))}")
    if not (d[0] <= d[1] <= d[2]):
        raise InstanceError(f"degrees: expected a nondecreasing order, got {clip(str(d))}")
    if tensor.delta <= 0:
        raise InstanceError(f"delta: expected a positive rational, got {clip(str(tensor.delta))}")
    if not tensor.support:
        raise InstanceError("support: expected a nonempty list, got []")
    for m in tensor.support:
        if len(m) != 3 or tuple(sorted(m)) != m or any(i not in (1, 2, 3) for i in m):
            raise InstanceError(
                f"support: expected multisets of 3 indices in 1..3, got {clip(str(list(m)))}"
            )
        if sum(d[i - 1] for i in m) > 0:
            # else no nonzero map from the summands to the trivial bundle exists
            raise InstanceError(f"support: expected degree sums <= 0, got {clip(str(list(m)))}")


def flag_pivots(tensor: P1Tensor, i: int, j: int) -> PivotSet:
    """Pivot set of the flag 0 < L_i < L_i + L_j < E for the tensor's support.

    Summand L_i enters the flag at level 1, L_j at level 2 and the third at
    level 3.  A support multiset survives on a tuple of levels exactly when
    the tuple is below its sorted entry levels, so those are the pivots.
    """
    if i == j or i not in (1, 2, 3) or j not in (1, 2, 3):
        raise InstanceError(f"flag indices must be distinct elements of 1..3, got ({i},{j})")
    level = {x: 3 for x in (1, 2, 3)}
    level[i], level[j] = 1, 2
    tuples = [tuple(sorted([level[x] for x in m])) for m in tensor.support]
    try:
        mask = sum({_LEVEL_BITS[tup] for tup in tuples})
    except KeyError:  # a support `validate_p1` refuses: from_tuples judges it
        return PivotSet.from_tuples(tuples, t=3, arity=ARITY)
    return _flag_pivot_set(mask)


# Bit k of a flag's level mask stands for the k-th ordered 3-tuple over 1..3.
_LEVEL_BITS = {tup: 1 << k for k, tup in enumerate(ordered_tuples(ARITY, 3))}


@functools.cache
def _flag_pivot_set(mask: int) -> PivotSet:
    """`PivotSet.from_tuples` of the level tuples in `mask`, once per mask: at
    most the 1023 nonempty sets of ordered 3-tuples over 1..3.  An int key
    keeps the cache small; a frozenset of tuples took about 1 MB."""
    return PivotSet.from_tuples(
        (tup for tup, bit in _LEVEL_BITS.items() if mask & bit), t=3, arity=ARITY
    )


@functools.cache
def _flag_vertices(ps: PivotSet) -> RankedVertices:
    """Every vertex of a flag's epigraph, ranked by each decide of the flag in
    place of an LP.  The flags share s = 2 and t = 3, so the epigraph depends
    on the pivots alone: at most the 15 antichains of ordered 3-tuples."""
    return ranked_vertices(ps, 2)


def k_singles(tensor: P1Tensor) -> tuple[int, int, int]:
    """Per-summand survival counts of the decoration."""
    return tuple(max(m.count(i) for m in tensor.support) for i in (1, 2, 3))


def k_values(tensor: P1Tensor) -> tuple[tuple[int, int, int], dict[tuple[int, int], int]]:
    """Per-summand and per-pair survival counts of the decoration."""
    pairs = {
        (i, j): max(m.count(i) + m.count(j) for m in tensor.support)
        for i, j in combinations((1, 2, 3), 2)
    }
    return k_singles(tensor), pairs


def _flag_filtration(tensor: P1Tensor, i: int, j: int) -> FiltrationSpec:
    d = tensor.degrees
    return FiltrationSpec(
        arity=ARITY,
        multiplicity=1,
        total=SheafData(rank=RANK, degree=0),
        steps=(
            SheafData(rank=1, degree=d[i - 1]),
            SheafData(rank=2, degree=d[i - 1] + d[j - 1]),
        ),
    )


@dataclass(frozen=True)
class P1Verdict:
    semistable: bool
    flags: tuple[tuple[int, int, CheckVerdict], ...]
    step_conditions: tuple[tuple[int, int, tuple[bool, bool]], ...]


def is_semistable_p1(tensor: P1Tensor, strictness: str = "semi") -> P1Verdict:
    """Decide (semi)stability by running all six flag filtrations exactly.

    The tensor is (semi)stable when no flag's verdict is `violated`: every
    minimum >= 0 (semi), > 0 (stable).  The step conditions are only reported,
    as the minima imply them: the value at a vertex e_i of a flag's weight
    segment is step i's condition, and each is read off its flag's decide.
    """
    return _decide_flags(tensor, strictness, {})


Decided = dict[tuple[FiltrationSpec, PivotSet], tuple[CheckVerdict, tuple[bool, ...]]]


def _decide_flags(tensor: P1Tensor, strictness: str, decided: Decided) -> P1Verdict:
    """`is_semistable_p1`, deciding each distinct (filtration, pivots) flag once
    through `decided`, which holds only flags of the tensor's delta decided at
    this strictness.  Each decide ranks the flag's `_flag_vertices` instead of
    solving an LP.  Step i's condition is `check_k_semistable`'s, taken from
    the sign of the decide's cost key at the simplex vertex e_i."""
    validate_p1(tensor)
    sp = StabilityParam.slope(tensor.delta)
    strict = strictness == "stable"
    flags = []
    steps = []
    for i, j in permutations((1, 2, 3), 2):
        ps = flag_pivots(tensor, i, j)
        flag = (_flag_filtration(tensor, i, j), ps)
        if flag not in decided:
            verdict, keys = _decide(*flag, sp, strictness, _flag_vertices(ps))
            decided[flag] = verdict, tuple(
                not violates(next(filter(None, key), 0), strict) for key in keys
            )
        verdict, conds = decided[flag]
        flags.append((i, j, verdict))
        steps.append((i, j, conds))
    semistable = not any(v.violated for _, _, v in flags)
    return P1Verdict(semistable, tuple(flags), tuple(steps))


def enumerate_two_pivot_matrices() -> list[tuple[Tuple_, Tuple_]]:
    """All two-element antichains of ordered 3-tuples over levels 1..3."""
    tuples = list(ordered_tuples(ARITY, 3))
    return [
        (p, q)
        for p, q in combinations(tuples, 2)
        if not dominated(p, q) and not dominated(q, p)
    ]


@dataclass(frozen=True)
class ClassifiedTensor:
    degrees: tuple[int, int, int]
    support: tuple[Multiset, ...]
    semistable: bool
    k_singles: tuple[int, int, int]


def _degree_triples(bound: int) -> list[tuple[int, int, int]]:
    triples = []
    for d1 in range(-bound, 1):
        for d2 in range(d1, -d1 + 1):
            d3 = -d1 - d2
            if d2 <= d3:
                triples.append((d1, d2, d3))
    return triples


def _admissible_multisets(degrees: tuple[int, int, int]) -> list[Multiset]:
    return [
        m
        for m in combinations_with_replacement((1, 2, 3), 3)
        if sum(degrees[i - 1] for i in m) <= 0
    ]


def tensor_count(degree_bound: int) -> int:
    """How many tensors `classify` decides, in closed form: the sum over degree
    triples of 2^n - 1, n the number of admissible multisets.

    All 10 multisets are admissible at degrees (0, 0, 0).  At (-k, d, k - d)
    with k >= 1 and -k <= d <= k/2, the degree sums admit 111, 112, 113, 122
    and 123 always, 222 when d <= 0, 223 when d = -k and 133 when d = k/2.  So
    the triples with smallest degree -k hold 127 + 63k + 31 floor((k-1)/2) +
    63 [k even] tensors.
    """
    b = degree_bound
    return 1023 + 127 * b + 63 * b * (b + 1) // 2 + 31 * ((b - 1) ** 2 // 4) + 63 * (b // 2)


def classify(delta=1, degree_bound: int = 0) -> list[ClassifiedTensor]:
    """Decide every valid tensor with |smallest degree| up to the bound, each
    distinct flag once."""
    if degree_bound < 0:
        raise InstanceError("degree bound must be nonnegative")
    rows = []
    decided: Decided = {}
    for degrees in _degree_triples(degree_bound):
        admissible = _admissible_multisets(degrees)
        for n in range(1, len(admissible) + 1):
            for support in combinations(admissible, n):
                tensor = P1Tensor.make(degrees, support, delta)
                verdict = _decide_flags(tensor, "semi", decided)
                rows.append(
                    ClassifiedTensor(
                        degrees=degrees,
                        support=tuple(sorted(support)),
                        semistable=verdict.semistable,
                        k_singles=k_singles(tensor),
                    )
                )
    return rows
