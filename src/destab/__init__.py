"""Exact-arithmetic (semi)stability checks for discretized tensor-sheaf data."""

from .model import (
    FiltrationSpec,
    InstanceError,
    SheafData,
    StabilityParam,
    validate_filtration,
)
from .pivots import (
    PivotSet,
    matrix_from_pivots,
    ordered_tuples,
    project_pivots,
)
from .poly import UniPoly, poly_cmp
from .stability import (
    CheckVerdict,
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
    r_value,
    reduce_destabilizer,
)

__all__ = [
    "CheckVerdict",
    "FiltrationSpec",
    "InstanceError",
    "PivotSet",
    "SheafData",
    "StabilityParam",
    "UniPoly",
    "check_k_semistable",
    "check_splitting",
    "constants",
    "decide_destabilizing",
    "gamma_vector",
    "is_critical",
    "k_of_level",
    "matrix_from_pivots",
    "mu_via_gamma",
    "mu_via_pivots",
    "objective",
    "ordered_tuples",
    "poly_cmp",
    "project_pivots",
    "r_value",
    "reduce_destabilizer",
    "validate_filtration",
]
