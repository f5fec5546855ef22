"""Ordered tuples over a level alphabet, their partial order, and pivot sets.

Levels run from 1 to t; level t stands for the whole sheaf, levels 1..t-1 for
the proper filtration steps.  A tuple i is below a tuple j (written i <= j in
this order) when every coordinate of i is >= the corresponding coordinate of
j; non-vanishing propagates downward, so a 0/1 table over the ordered tuples
is determined by its maximal 1-entries, the pivots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from .model import clip

Tuple_ = tuple[int, ...]


def dominated(i: Tuple_, j: Tuple_) -> bool:
    """True when i is below j, i.e. every coordinate of i is >= that of j."""
    return all(map(operator.ge, i, j))


def ordered_tuples(arity: int, t: int) -> Iterator[Tuple_]:
    """All nondecreasing tuples of the given arity over levels 1..t."""
    return combinations_with_replacement(range(1, t + 1), arity)


def _check_tuple(tup: Tuple_, arity: int, t: int) -> None:
    if len(tup) != arity:
        raise ValueError(f"tuple {clip(str(tup))} does not have arity {arity}")
    if tup and not (1 <= min(tup) and max(tup) <= t):
        raise ValueError(f"tuple {clip(str(tup))} has entries outside 1..{t}")
    if list(tup) != sorted(tup):
        raise ValueError(f"tuple {clip(str(tup))} is not nondecreasing")


@dataclass(frozen=True)
class PivotSet:
    """Antichain of ordered tuples; canonical encoding of a 0/1 behavior table."""

    t: int
    arity: int
    pivots: tuple[Tuple_, ...]  # sorted, pairwise incomparable

    def __post_init__(self) -> None:
        if not self.pivots:
            raise ValueError("pivot set must be nonempty")
        for p in self.pivots:
            _check_tuple(p, self.arity, self.t)

    @staticmethod
    def from_tuples(raw: Iterable[Tuple_], t: int, arity: int) -> "PivotSet":
        """Keep only the maximal tuples, and name an invalid maximal tuple by its
        place in `raw`, as pivots[k]; empty input fails in __post_init__."""
        given = [tuple(p) for p in raw]
        tuples = set(given)
        maximal = {p for p in tuples if not any(q != p and dominated(p, q) for q in tuples)}
        for k, p in enumerate(given):
            if p in maximal:
                try:
                    _check_tuple(p, arity, t)
                except ValueError as exc:
                    raise ValueError(f"pivots[{k}]: {exc}") from exc
        return PivotSet(t=t, arity=arity, pivots=tuple(sorted(maximal)))


def matrix_from_pivots(ps: PivotSet) -> dict[Tuple_, int]:
    """Full 0/1 table: 1 at every tuple lying below some pivot."""
    return {
        tup: int(any(dominated(tup, p) for p in ps.pivots))
        for tup in ordered_tuples(ps.arity, ps.t)
    }


def project_pivots(ps: PivotSet, keep: Iterable[int]) -> PivotSet:
    """Pivot set induced on the subfiltration retaining the given levels.

    Each coordinate moves up to the smallest retained level, then levels are
    relabeled 1..|keep|+1 (the top level is always retained).
    """
    kept = sorted(set(keep))
    if any(not 1 <= k <= ps.t - 1 for k in kept):
        raise ValueError("kept levels must lie in 1..t-1")
    retained = kept + [ps.t]
    relabel = {old: new for new, old in enumerate(retained, start=1)}

    def lift(c: int) -> int:
        return relabel[next(lv for lv in retained if lv >= c)]

    projected = [tuple(lift(c) for c in p) for p in ps.pivots]
    return PivotSet.from_tuples(projected, t=len(retained), arity=ps.arity)
