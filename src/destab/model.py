"""Discrete data model: sheaf data, filtration specifications, stability parameters."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .poly import UniPoly


class InstanceError(ValueError):
    """Raised when input data violates a structural invariant."""


ECHO_LIMIT = 60


def clip(text: str) -> str:
    """An input value as an error message echoes it: cut after ECHO_LIMIT
    characters and marked with '…', so one oversized value cannot flood the line."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "…"


def guard_limit(default: int) -> int:
    """Enumeration size guard; DESTAB_GUARD, a positive integer, overrides the default."""
    value = os.environ.get("DESTAB_GUARD")
    if not value:
        return default
    try:
        limit = int(value)
    except ValueError:
        limit = 0
    if limit < 1:
        raise InstanceError(f"DESTAB_GUARD: expected a positive integer, got {clip(repr(value))}")
    return limit


@dataclass(frozen=True)
class SheafData:
    rank: int
    degree: int
    hilbert: Optional[UniPoly] = None


@dataclass(frozen=True)
class StabilityParam:
    """One δ, a rational or a polynomial; its type is the mode."""

    delta: Union[Fraction, UniPoly]

    @property
    def mode(self) -> str:
        return "hilbert" if isinstance(self.delta, UniPoly) else "slope"

    @staticmethod
    def slope(value) -> "StabilityParam":
        value = Fraction(value)
        if value <= 0:
            raise InstanceError("delta: slope parameter must be positive")
        return StabilityParam(delta=value)

    @staticmethod
    def hilbert(poly: UniPoly) -> "StabilityParam":
        if poly.leading <= 0:
            raise InstanceError("delta: polynomial parameter needs a positive leading coefficient")
        return StabilityParam(delta=poly)


@dataclass(frozen=True)
class FiltrationSpec:
    """A chain of proper saturated subsheaves, discretized to ranks and degrees.

    Steps are normalized to levels 1..s; level t = s+1 denotes the full sheaf.
    The multiplicity b of the decoration is recorded but plays no arithmetic
    role: only the support pattern of the morphism matters.  Building a spec
    validates it (`validate_filtration`), so every spec in hand is valid.
    """

    arity: int
    multiplicity: int
    total: SheafData
    steps: tuple[SheafData, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        validate_filtration(self)

    @property
    def s(self) -> int:
        return len(self.steps)

    @property
    def t(self) -> int:
        return len(self.steps) + 1

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(st.rank for st in self.steps)

    def substeps(self, keep: Sequence[int]) -> "FiltrationSpec":
        """Subfiltration retaining the 1-based step levels in `keep`."""
        kept = sorted(set(keep))
        if any(not 1 <= k <= self.s for k in kept):
            raise InstanceError("kept levels must lie in 1..s")
        return FiltrationSpec(
            arity=self.arity,
            multiplicity=self.multiplicity,
            total=self.total,
            steps=tuple(self.steps[k - 1] for k in kept),
        )


def validate_filtration(fs: FiltrationSpec) -> None:
    """Check all filtration invariants, raising on the first violation with
    its JSON path."""
    positive = {"arity": fs.arity, "multiplicity": fs.multiplicity, "total.rank": fs.total.rank}
    for path, value in positive.items():
        if value < 1:
            raise InstanceError(f"{path}: expected a positive integer, got {clip(str(value))}")
    if not fs.steps:
        raise InstanceError("steps: expected at least one step, got []")
    prev = 0
    for k, st in enumerate(fs.steps):
        if st.rank <= prev:
            raise InstanceError(
                f"steps[{k}].rank: expected a rank above {clip(str(prev))}, got {clip(str(st.rank))}"
            )
        prev = st.rank
    if prev >= fs.total.rank:
        raise InstanceError(
            f"steps[{fs.s - 1}].rank: expected a rank below the total rank "
            f"{clip(str(fs.total.rank))}, got {clip(str(prev))}"
        )


def sheaf_values(fs: FiltrationSpec, sp: StabilityParam) -> list[Union[int, UniPoly]]:
    """Each sheaf's value, total first: its integer degree in slope mode, its
    Hilbert polynomial in hilbert mode.  The one place that knows the mode."""
    sheaves = (fs.total, *fs.steps)
    if sp.mode == "slope":
        return [sd.degree for sd in sheaves]
    missing = next((k for k, sd in enumerate(sheaves) if sd.hilbert is None), None)
    if missing is not None:
        path = f"steps[{missing - 1}]" if missing else "total"
        raise InstanceError(f"{path}.hilbert: expected a coefficient list in hilbert mode")
    return [sd.hilbert for sd in sheaves]
