"""JSON instance files and reports; exact values only, never floating point.

Rationals travel as strings like "3/4" or "-16"; polynomials as lists of such
strings with the constant term first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Optional

from .model import (
    FiltrationSpec,
    InstanceError,
    SheafData,
    StabilityParam,
    clip,
)
from .pivots import PivotSet
from .poly import UniPoly
from .stability import CheckVerdict, Value, Weights


def parse_frac(text: Any, path: str) -> Fraction:
    """A rational string or a JSON integer, with no exponent; errors name the
    value's JSON path."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise InstanceError(f"{path}: expected a rational string, got {clip(repr(text))}")
    if isinstance(text, str) and ("e" in text or "E" in text):  # Fraction would compute 10**exp
        raise InstanceError(f"{path}: invalid rational {clip(repr(text))}: exponents are not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"{path}: invalid rational {clip(repr(text))}: {clip(str(exc))}") from exc


def parse_poly(coeffs: Any, path: str) -> UniPoly:
    """A list of rational coefficients, constant term first."""
    if not isinstance(coeffs, list):
        raise InstanceError(f"{path}: expected a coefficient list, got {clip(repr(coeffs))}")
    return UniPoly.from_coeffs(parse_frac(c, f"{path}[{k}]") for k, c in enumerate(coeffs))


def poly_list(poly: UniPoly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def value_json(value: Value) -> Any:
    if isinstance(value, UniPoly):
        return poly_list(value)
    return str(value)


def parse_int(value: Any, path: str) -> int:
    """A JSON integer, never a boolean or a float; errors name the value's JSON path."""
    if type(value) is not int:  # a bool is an int subclass, so it fails too
        raise InstanceError(f"{path}: expected an integer, got {clip(repr(value))}")
    return value


def parse_list(value: Any, path: str, item: Callable[[Any, str], Any] = parse_int) -> tuple:
    """A JSON list with every entry read by `item` under its own JSON path."""
    if not isinstance(value, list):
        raise InstanceError(f"{path}: expected a list, got {clip(repr(value))}")
    return tuple(item(v, f"{path}[{k}]") for k, v in enumerate(value))


def _parse_sheaf(obj: Any, where: str) -> SheafData:
    if not isinstance(obj, dict):
        raise InstanceError(f"{where}: expected an object")
    rank = parse_int(obj.get("rank"), f"{where}.rank")
    degree = parse_int(obj.get("degree"), f"{where}.degree")
    hilbert = parse_poly(obj["hilbert"], f"{where}.hilbert") if "hilbert" in obj else None
    return SheafData(rank=rank, degree=degree, hilbert=hilbert)


def _parse_weight(value: Any, path: str) -> Fraction:
    weight = parse_frac(value, path)
    if weight <= 0:
        raise InstanceError(f"{path}: expected a positive rational, got {clip(repr(value))}")
    return weight


def parse_instance(
    obj: Any,
) -> tuple[FiltrationSpec, PivotSet, StabilityParam, Optional[Weights]]:
    """Read an instance; every structural error names its JSON path."""
    if not isinstance(obj, dict):
        raise InstanceError("instance: expected an object")
    mode = obj.get("mode", "slope")
    if mode not in ("slope", "hilbert"):
        raise InstanceError(f"mode: expected 'slope' or 'hilbert', got {clip(repr(mode))}")
    arity = parse_int(obj.get("arity"), "arity")
    multiplicity = parse_int(obj.get("multiplicity", 1), "multiplicity")
    total = _parse_sheaf(obj.get("total"), "total")
    steps = parse_list(obj.get("steps", []), "steps", _parse_sheaf)

    delta = obj.get("delta")
    if mode == "slope":
        sp = StabilityParam.slope(parse_frac(delta, "delta"))
    else:
        sp = StabilityParam.hilbert(parse_poly(delta, "delta"))

    pivots = parse_list(obj.get("pivots"), "pivots", parse_list)
    if not pivots:
        raise InstanceError("pivots: expected a nonempty list, got []")
    # built after the other fields' checks and before the pivots, which are
    # read against its arity and levels; building it validates it
    fs = FiltrationSpec(arity=arity, multiplicity=multiplicity, total=total, steps=steps)
    ps = PivotSet.from_tuples(pivots, t=fs.t, arity=arity)

    weights: Optional[Weights] = None
    if obj.get("weights") is not None:
        weights = parse_list(obj["weights"], "weights", _parse_weight)
    return fs, ps, sp, weights


def _sheaf_json(sd: SheafData) -> dict:
    out: dict[str, Any] = {"rank": sd.rank, "degree": sd.degree}
    if sd.hilbert is not None:
        out["hilbert"] = poly_list(sd.hilbert)
    return out


def instance_json(
    fs: FiltrationSpec, ps: PivotSet, sp: StabilityParam, weights: Optional[Weights]
) -> dict:
    out: dict[str, Any] = {
        "mode": sp.mode,
        "arity": fs.arity,
        "multiplicity": fs.multiplicity,
        "total": _sheaf_json(fs.total),
        "steps": [_sheaf_json(st) for st in fs.steps],
        "delta": value_json(sp.delta),
        "pivots": [list(p) for p in ps.pivots],
    }
    if weights is not None:
        out["weights"] = [str(w) for w in weights]
    return out


def verdict_json(verdict: CheckVerdict) -> dict:
    out: dict[str, Any] = {
        "min_value": value_json(verdict.min_value),
        "witness": [str(w) for w in verdict.witness],
        "attaining_pivot": list(verdict.attaining_pivot),
        "classification": verdict.classification,
        "violated": verdict.violated,
    }
    if verdict.boundary_support is not None:
        out["boundary_support"] = list(verdict.boundary_support)
    return out
