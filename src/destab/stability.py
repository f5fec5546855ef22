"""Stability arithmetic over weighted filtrations with a fixed pivot set.

Everything is exact.  A stability value is a `Fraction` in slope mode and an
asymptotically ordered rational `UniPoly` in the polynomial (Hilbert) mode;
both support `+`, scaling by a rational and `<`, so one code path serves both
modes (slope mode is Hilbert mode with constant values).  Only
`model.sheaf_values` knows the mode.  Every polytope question is a face
of one epigraph {sum w = 1, w >= 0, z - g_p . w = slack_p >= 0}, which
`_epigraph` alone writes, over the columns w, z and one slack per pivot; a
pivot's region is where its slack vanishes.  `_face` solves one exact LP over
it and reads the vertices of its optimal face off the simplex's final tableau;
only the integer cost row differs.  The decision minimizes the convex
piecewise-linear stability value over the closed weight simplex: `_lp_costs`
writes the values' coefficients, leading degree first, as integer cost rows,
and their lexicographic order is the asymptotic order of the values.
`--trace` takes zero costs, whose optimal face is the whole epigraph, and the
splitting test minimizes the total slack.

`_least` is the second face source: given that zero-cost vertex list
(`epigraph_vertices`) with integer (w, z) numerators (`ranked_vertices`), it
keeps the vertices of least integer cost key and returns the list `_face`
returns, with no LP.  `p1`, whose flags share at most 15 epigraphs, decides by
ranking them; every other decide solves the LP, which the tests hold the
ranked route to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence, Union

from .model import (
    FiltrationSpec,
    InstanceError,
    StabilityParam,
    guard_limit,
    sheaf_values,
    validate_filtration,
)
from .pivots import PivotSet, Tuple_, matrix_from_pivots, project_pivots
from .poly import UniPoly
from .polytope import IntRow, enumerate_vertices, simplex

Value = Union[Fraction, UniPoly]
Weights = tuple[Fraction, ...]

STRICTLY_DESTABILIZED = "strictly-destabilized"
MARGINALLY_DESTABILIZED = "marginally-destabilized"
STABLE_OK = "stable-ok"
BOUNDARY_WITNESS = "boundary-witness"


def _check_instance(
    fs: FiltrationSpec, ps: Optional[PivotSet], w: Optional[Weights] = None
) -> None:
    if ps is not None and (ps.t != fs.t or ps.arity != fs.arity):
        raise InstanceError(
            f"pivot set over t={ps.t}, arity={ps.arity} does not match "
            f"filtration with t={fs.t}, arity={fs.arity}"
        )
    if w is not None and len(w) != fs.s:
        raise InstanceError(f"weights: expected one per step ({fs.s}), got {len(w)}")


def constants(fs: FiltrationSpec, sp: StabilityParam) -> list[Value]:
    """Per-step linear constants of the stability value."""
    validate_filtration(fs)
    total, *values = sheaf_values(fs, sp)
    r, a = fs.total.rank, fs.arity
    return [
        st.rank * total - r * v - a * st.rank * sp.delta
        for st, v in zip(fs.steps, values)
    ]


def gamma_vector(fs: FiltrationSpec, w: Weights) -> tuple[Fraction, ...]:
    """Rank-indexed weight profile of the filtration: nondecreasing, zero-sum."""
    _check_instance(fs, None, w)
    r = fs.total.rank
    gamma = [Fraction(0)] * r
    for alpha, st in zip(w, fs.steps):
        for pos in range(r):
            gamma[pos] += alpha * ((st.rank - r) if pos < st.rank else st.rank)
    return tuple(gamma)


def _pivot_coeffs(ps: PivotSet, s: int) -> dict[Tuple_, tuple[int, ...]]:
    """Per-pivot weight coefficients: entry i counts pivot coordinates <= i."""
    return {
        p: tuple(sum(1 for c in p if c <= i) for i in range(1, s + 1))
        for p in ps.pivots
    }


def r_value(fs: FiltrationSpec, ps: PivotSet, w: Weights) -> tuple[Fraction, Tuple_]:
    """Maximum cumulative-weight sum over pivots, with the attaining pivot."""
    _check_instance(fs, ps, w)
    coeffs = _pivot_coeffs(ps, fs.s)
    best: Optional[tuple[Fraction, Tuple_]] = None
    for p in ps.pivots:  # sorted, so ties resolve to the lexicographically smallest
        val = sum((c * a for c, a in zip(coeffs[p], w)), Fraction(0))
        if best is None or val > best[0]:
            best = (val, p)
    assert best is not None
    return best


def mu_via_pivots(fs: FiltrationSpec, ps: PivotSet, w: Weights) -> Fraction:
    rmax, _ = r_value(fs, ps, w)
    r, a = fs.total.rank, fs.arity
    return -a * sum((alpha * st.rank for alpha, st in zip(w, fs.steps)), Fraction(0)) + r * rmax


def mu_via_gamma(fs: FiltrationSpec, ps: PivotSet, w: Weights) -> Fraction:
    """Independent route to mu: minimize gamma-coordinate sums over the full table."""
    _check_instance(fs, ps, w)
    import math

    count = math.comb(fs.t + fs.arity - 1, fs.arity)
    limit = guard_limit(100_000)
    if count > limit:
        raise InstanceError(f"instance too large to enumerate: {count} tuples > {limit}")
    gamma = gamma_vector(fs, w)
    # Levels 1..s sit at rank positions ending at the step ranks; level t at rank r.
    position = {lvl: rank - 1 for lvl, rank in enumerate(fs.ranks, start=1)}
    position[fs.t] = fs.total.rank - 1
    table = matrix_from_pivots(ps)
    sums = [
        sum((gamma[position[c]] for c in tup), Fraction(0))
        for tup, one in table.items()
        if one
    ]
    return -min(sums)


def is_critical(fs: FiltrationSpec, ps: PivotSet, w: Weights) -> bool:
    """True when mu of the weighted filtration exceeds the sum over its steps.

    Non-critical filtrations decompose: their mu equals the sum of the mus of
    the one-step subfiltrations, each weighted by its own coefficient.
    """
    _check_instance(fs, ps, w)
    total = mu_via_pivots(fs, ps, w)
    parts = Fraction(0)
    for i in range(1, fs.s + 1):
        sub_fs = fs.substeps([i])
        sub_ps = project_pivots(ps, [i])
        parts += mu_via_pivots(sub_fs, sub_ps, (w[i - 1],))
    return total != parts


def _value(sp: StabilityParam, cs: Sequence[Value], r: int, w: Weights, rmax: Fraction) -> Value:
    """Stability value sum_i w_i c_i + r * delta * rmax."""
    return sum(alpha * c for alpha, c in zip(w, cs)) + r * rmax * sp.delta


def objective(fs: FiltrationSpec, ps: PivotSet, w: Weights, sp: StabilityParam) -> Value:
    """Exact stability value of the weighted filtration."""
    _check_instance(fs, ps, w)
    return _value(sp, constants(fs, sp), fs.total.rank, w, r_value(fs, ps, w)[0])


def violates(value: Value, strict: bool) -> bool:
    """The one stability rule: a negative value violates semistability, and a
    value that is not positive violates stability (`strict`)."""
    return value < 0 or (strict and not value > 0)


def k_of_level(ps: PivotSet, level: int) -> int:
    """Largest number of factors the morphism keeps inside the given step."""
    if not 1 <= level <= ps.t - 1:
        raise ValueError(f"level {level} out of range 1..{ps.t - 1}")
    return max(sum(1 for c in p if c <= level) for p in ps.pivots)


def check_k_semistable(
    fs: FiltrationSpec, ps: PivotSet, sp: StabilityParam, strict: bool = False
) -> list[bool]:
    """Per-step length-one condition: `not violates(constant + r * delta * k, strict)`."""
    _check_instance(fs, ps)
    cs = constants(fs, sp)
    r = fs.total.rank
    return [
        not violates(c + r * k_of_level(ps, level) * sp.delta, strict)
        for level, c in enumerate(cs, start=1)
    ]


@dataclass(frozen=True)
class CheckVerdict:
    min_value: Value
    witness: Weights  # point of the closed simplex attaining the minimum
    attaining_pivot: Tuple_
    classification: str
    violated: bool
    boundary_support: Optional[tuple[int, ...]] = None


def _epigraph(gs: Sequence[Tuple_], s: int) -> list[IntRow]:
    """The epigraph LP's equality rows over the columns w (0..s-1), z (s) and
    one slack per pivot (s + 1 + k), right-hand side last: sum w = 1, then
    z - g_k . w - slack_k = 0 for each pivot k in order."""
    npiv = len(gs)
    return [[1] * s + [0] * (1 + npiv) + [1]] + [
        [-x for x in g] + [1] + [-(m == k) for m in range(npiv)] + [0] for k, g in enumerate(gs)
    ]


def _vertex_keys(costs: list[list[int]], gs: Sequence[Tuple_], s: int) -> list[list[int]]:
    """The cost key of each simplex vertex e_j of the epigraph.  At e_j, z =
    max_p g_p[j], which is `k_of_level(ps, j + 1)`, so key j lists the cost
    rows' entries of c_j + r delta k_j: its first nonzero entry has the sign
    of step j's length-one value."""
    tops = [max(g[i] for g in gs) for i in range(s)]
    return [[row[j] + row[s] * tops[j] for row in costs] for j in range(s)]


def _start(
    costs: list[list[int]], gs: Sequence[Tuple_], s: int
) -> tuple[list[IntRow], list[int], list[list[int]]]:
    """The `_epigraph` rows as written, a feasible basis at the simplex vertex
    e_i that the cost rows rank cheapest, and the `_vertex_keys`.  The basis
    holds w_i for the simplex row, z for the row of the first pivot attaining
    max_p g_p[i], and its own slack for every other pivot's row."""
    keys = _vertex_keys(costs, gs, s)
    i = min(range(s), key=keys.__getitem__)
    top = max(g[i] for g in gs)
    k0 = next(k for k, g in enumerate(gs) if g[i] == top)
    return _epigraph(gs, s), [i] + [s if k == k0 else s + 1 + k for k in range(len(gs))], keys


def _lp_costs(cs: Sequence[Value], rdelta: Value, npiv: int) -> list[list[int]]:
    """Integer cost rows of the epigraph LP, most significant first: with D the
    highest degree, row k holds every column's coefficient of degree D - k (a
    `Fraction` is a constant), all scaled by one positive lcm, so a column's
    entries in lexicographic order compare as its value does for large
    arguments.  The slacks cost 0."""
    coeffs = [v.coeffs[::-1] if isinstance(v, UniPoly) else (v,) for v in (*cs, rdelta)]
    n = max(map(len, coeffs))
    rows = list(zip(*[(0,) * (n - len(c)) + c for c in coeffs]))
    scale = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (scale // x.denominator) for x in row] + [0] * npiv for row in rows]


def _face(
    costs: list[list[int]], gs: Sequence[Tuple_], s: int
) -> tuple[list[tuple[Fraction, ...]], list[list[int]]]:
    """Sorted vertices (w, z, slacks) of the epigraph's face where the cost
    rows are least, with `_start`'s vertex keys: one LP from the basis `_start`
    picks.  z >= g_p . w >= 0 holds on the whole epigraph, so z's own bound is
    left out of the search."""
    tableau, basis, keys = _start(costs, gs, s)
    face = enumerate_vertices(tableau, basis, simplex(tableau, basis, costs), implied=(s,))
    return face, keys


def epigraph_vertices(gs: Sequence[Tuple_], s: int) -> list[tuple[Fraction, ...]]:
    """Every vertex (w, z, slacks) of the epigraph, sorted: the optimal face of
    zero costs, which is the whole epigraph."""
    return _face([[0] * (s + 1 + len(gs))], gs, s)[0]


# The sorted epigraph vertices, and their (w, z) coordinates as integer
# numerators over one common positive denominator; tuples, since p1 caches them.
RankedVertices = tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[int, ...], ...]]


def ranked_vertices(ps: PivotSet, s: int) -> RankedVertices:
    """The `epigraph_vertices` of the pivots over s steps with their (w, z)
    numerators, which `_least` ranks by cost."""
    vertices = epigraph_vertices(list(_pivot_coeffs(ps, s).values()), s)
    den = lcm(*[x.denominator for v in vertices for x in v[: s + 1]])
    numerators = tuple(
        tuple(x.numerator * (den // x.denominator) for x in v[: s + 1]) for v in vertices
    )
    return tuple(vertices), numerators


def _least(costs: list[list[int]], ranked: RankedVertices) -> list[tuple[Fraction, ...]]:
    """The vertices whose integer cost key is least, in list order.  A
    lexicographic linear cost is least over a polytope on a face whose vertices
    are the polytope's vertices of least cost (Schrijver 1986), so over the
    sorted epigraph vertices this is `_face`'s list, with no LP.  The slacks
    cost 0, so the keys read only the (w, z) numerators; their positive common
    denominator keeps the order."""
    vertices, numerators = ranked
    keys = [[sum(map(mul, row, v)) for row in costs] for v in numerators]
    least = min(keys)
    return [v for v, key in zip(vertices, keys) if key == least]


def region_minima(
    fs: FiltrationSpec, ps: PivotSet, sp: StabilityParam
) -> list[tuple[Tuple_, list[tuple[Weights, Value]]]]:
    """Vertices of each pivot p's region (where p attains r_value) with their exact
    values; there the value is linear, with g_p . w in place of the maximum.

    They are the vertices of the epigraph {w in the simplex, z - g_q . w =
    slack_q >= 0 for every pivot q} at which slack_p = 0, so one enumeration
    serves every region: the LP with zero costs, whose optimal face is the
    whole epigraph.  `check --trace` prints them."""
    cs = constants(fs, sp)
    _check_instance(fs, ps)
    s, r = fs.s, fs.total.rank
    gs = _pivot_coeffs(ps, s)
    vertices = epigraph_vertices(list(gs.values()), s)
    value = {v: _value(sp, cs, r, v[:s], v[s]) for v in vertices}
    return [
        (p, [(v[:s], value[v]) for v in vertices if v[s + 1 + k] == 0]) for k, p in enumerate(gs)
    ]


def decide_destabilizing(
    fs: FiltrationSpec, ps: PivotSet, sp: StabilityParam, strictness: str = "semi"
) -> CheckVerdict:
    """Exact minimum of the stability value over the closed weight simplex.

    `violated` is `violates(min_value, strictness == "stable")`.  A negative
    minimum violates semistability (a nearby strictly positive rational weight
    also violates, by continuity).  Any zero minimum violates stability: one
    attained at strictly positive weights is marginal, and one attained only on
    the simplex boundary names the subfiltration on the positive coordinates
    (`boundary_support`), which has value 0 at positive weights.

    The value c . w + r delta max_p g_p . w is convex (delta > 0), so its
    minimum is the epigraph LP: minimize c . w + r delta z subject to sum w = 1,
    w >= 0 and z - g_p . w = slack_p >= 0.  The columns with a strictly
    positive reduced cost at the optimum vanish on every optimum; fixing them
    at zero leaves the optimal face, read off the final tableau.  On the face
    max_p g_p . w is affine, so each pivot's region meets it in a face: its
    vertices with slack_p = 0 are exactly the region vertices that reach the
    minimum.

    The witness is the lexicographically least of them, and the attaining pivot
    the least pivot with one.  A zero minimum is marginal when the vertices of
    some region have a strictly positive centroid (a linear function minimized
    on a face: the face then holds a strictly positive point); the witness is
    then the centroid of the last such region in pivot order.
    """
    return _decide(fs, ps, sp, strictness)[0]


def _decide(
    fs: FiltrationSpec,
    ps: PivotSet,
    sp: StabilityParam,
    strictness: str,
    ranked: Optional[RankedVertices] = None,
) -> tuple[CheckVerdict, list[list[int]]]:
    """`decide_destabilizing`'s verdict and the `_vertex_keys`: step i's
    `check_k_semistable` condition is `not violates(x, strict)` for the first
    nonzero entry x of key i - 1 (0 if there is none).  The optimal face comes
    from the LP, or, given the epigraph's `ranked_vertices`, from `_least`;
    both give the same list, and everything after it is shared."""
    if strictness not in ("semi", "stable"):
        raise InstanceError(f"unknown strictness {strictness!r}")
    cs = constants(fs, sp)
    _check_instance(fs, ps)
    s = fs.s
    gs = list(_pivot_coeffs(ps, s).values())
    costs = _lp_costs(cs, fs.total.rank * sp.delta, len(gs))
    if ranked is None:
        face, keys = _face(costs, gs, s)
    else:
        face, keys = _least(costs, ranked), _vertex_keys(costs, gs, s)
    regions = [(p, [v for v in face if v[s + 1 + k] == 0]) for k, p in enumerate(ps.pivots)]
    regions = [(p, vs) for p, vs in regions if vs]

    witness = face[0][:s]
    min_value = _value(sp, cs, fs.total.rank, witness, face[0][s])
    boundary = None
    if min_value < 0:
        classification = STRICTLY_DESTABILIZED
    elif min_value > 0:
        classification = STABLE_OK
    else:
        classification = BOUNDARY_WITNESS
        for _, vs in regions:
            centroid = tuple(sum(v[i] for v in vs) / len(vs) for i in range(s))
            if all(c > 0 for c in centroid):
                classification, witness = MARGINALLY_DESTABILIZED, centroid
        if classification == BOUNDARY_WITNESS:
            boundary = tuple(i + 1 for i, c in enumerate(witness) if c > 0)
    violated = violates(min_value, strictness == "stable")
    verdict = CheckVerdict(min_value, witness, regions[0][0], classification, violated, boundary)
    return verdict, keys


def reduce_destabilizer(
    fs: FiltrationSpec, ps: PivotSet, sp: StabilityParam, strictness: str = "semi"
) -> tuple[tuple[int, ...], Weights, list[tuple[tuple[int, ...], bool]]]:
    """Greedily shrink a violating filtration to a locally minimal violating subset.

    Indices are tried in ascending order; the first successful removal recurses.
    Returns the surviving original step levels, a witness weight vector for the
    reduced instance, and the trace of all attempted removals.  Each attempt
    decides the subfiltration of the original instance on the levels it keeps:
    projections compose, since the lifts nest and the maxima of a monotone
    image are images of maxima.
    """
    verdict = decide_destabilizing(fs, ps, sp, strictness)
    if not verdict.violated:
        raise InstanceError("instance does not violate; nothing to reduce")
    trace: list[tuple[tuple[int, ...], bool]] = []
    labels = tuple(range(1, fs.s + 1))
    while True:
        for drop in labels:
            keep = tuple(lvl for lvl in labels if lvl != drop)
            if not keep:
                continue
            sub = decide_destabilizing(fs.substeps(keep), project_pivots(ps, keep), sp, strictness)
            trace.append((keep, sub.violated))
            if sub.violated:
                labels, verdict = keep, sub
                break
        else:
            return labels, verdict.witness, trace


def check_splitting(
    fs: FiltrationSpec, ps: PivotSet
) -> tuple[bool, Optional[Weights]]:
    """Nonnegative nonzero weights equalizing all pivot sums, if any exist.

    A nontrivial intersection of the equal-maximum subspace with the
    nonnegative orthant certifies that the filtration splits.
    """
    validate_filtration(fs)
    _check_instance(fs, ps)
    s = fs.s
    gs = list(_pivot_coeffs(ps, s).values())
    # All pivot sums are equal where every slack z - g_p . w is zero: when the
    # least total slack is 0, the optimal face is that polytope.
    face, _ = _face([[0] * (s + 1) + [1] * len(gs)], gs, s)
    if any(face[0][s + 1 :]):
        return False, None
    return True, face[0][:s]

