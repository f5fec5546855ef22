"""Discrete data model: sheaf data, filtration specifications, stability parameters."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .poly import UniPoly


class InstanceError(ValueError):
    """Raised when input data violates a structural invariant."""


def guard_limit(default: int) -> int:
    """Enumeration size guard; DESTAB_GUARD overrides the default."""
    value = os.environ.get("DESTAB_GUARD")
    return int(value) if value else default


@dataclass(frozen=True)
class SheafData:
    rank: int
    degree: int
    hilbert: Optional[UniPoly] = None


@dataclass(frozen=True)
class StabilityParam:
    """A positive rational (slope mode) or asymptotically positive polynomial."""

    mode: str  # "slope" | "hilbert"
    delta: Union[Fraction, UniPoly]

    @staticmethod
    def slope(value) -> "StabilityParam":
        value = Fraction(value)
        if value <= 0:
            raise InstanceError("delta: slope parameter must be positive")
        return StabilityParam(mode="slope", delta=value)

    @staticmethod
    def hilbert(poly: UniPoly) -> "StabilityParam":
        if poly.leading <= 0:
            raise InstanceError("delta: polynomial parameter needs a positive leading coefficient")
        return StabilityParam(mode="hilbert", delta=poly)


@dataclass(frozen=True)
class FiltrationSpec:
    """A chain of proper saturated subsheaves, discretized to ranks and degrees.

    Steps are normalized to levels 1..s; level t = s+1 denotes the full sheaf.
    The multiplicity b of the decoration is recorded but plays no arithmetic
    role: only the support pattern of the morphism matters.
    """

    arity: int
    multiplicity: int
    total: SheafData
    steps: tuple[SheafData, ...] = field(default_factory=tuple)

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
    """Check all filtration invariants, raising on the first violation."""
    if fs.arity < 1:
        raise InstanceError(f"arity must be >= 1, got {fs.arity}")
    if fs.multiplicity < 1:
        raise InstanceError(f"multiplicity must be >= 1, got {fs.multiplicity}")
    if fs.total.rank < 1:
        raise InstanceError(f"total rank must be >= 1, got {fs.total.rank}")
    prev = 0
    for k, st in enumerate(fs.steps, start=1):
        if st.rank <= prev:
            raise InstanceError(
                f"step {k}: ranks must be strictly increasing ({st.rank} after {prev})"
            )
        prev = st.rank
    if fs.steps and fs.steps[-1].rank >= fs.total.rank:
        raise InstanceError(
            f"last step rank {fs.steps[-1].rank} must be < total rank {fs.total.rank}"
        )


def sheaf_values(fs: FiltrationSpec, sp: StabilityParam) -> list[Union[int, UniPoly]]:
    """Each sheaf's value, total first: its integer degree in slope mode, its
    Hilbert polynomial in hilbert mode.  The one place that knows the mode."""
    sheaves = (fs.total, *fs.steps)
    if sp.mode == "slope":
        return [sd.degree for sd in sheaves]
    if sp.mode != "hilbert":
        raise InstanceError(f"unknown mode {sp.mode!r}")
    if any(sd.hilbert is None for sd in sheaves):
        raise InstanceError("hilbert mode requires a polynomial on every sheaf datum")
    return [sd.hilbert for sd in sheaves]
