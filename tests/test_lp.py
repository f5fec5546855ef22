"""The epigraph-LP decision against the per-pivot oracle, SymPy and a work bound."""

import json
import random
from fractions import Fraction

import pytest

import destab.polytope
from destab.polytope import enumerate_vertices, simplex
from destab import (
    FiltrationSpec,
    PivotSet,
    SheafData,
    StabilityParam,
    check_splitting,
    decide_destabilizing,
)
from destab.cli import main
from destab.instances import parse_instance
from destab.model import InstanceError
from destab.stability import (
    MARGINALLY_DESTABILIZED,
    _epigraph,
    _face,
    _lp_costs,
    _pivot_coeffs,
    _start,
    check_k_semistable,
    constants,
    region_minima,
)

import oracles
from util import RANK6_INSTANCE, level_set_instance, rank6

F = Fraction

# s = 6 steps and |P| = 10 pivots from one level set: 30 030 tight subsets for
# the per-pivot enumeration, one small LP here.
S6_P10 = {
    "mode": "slope",
    "arity": 4,
    "total": {"rank": 8, "degree": -9},
    "steps": [
        {"rank": 1, "degree": 4},
        {"rank": 2, "degree": 4},
        {"rank": 3, "degree": -2},
        {"rank": 5, "degree": 3},
        {"rank": 6, "degree": 0},
        {"rank": 7, "degree": -8},
    ],
    "delta": "2",
    "pivots": [
        [1, 1, 5, 7], [1, 1, 6, 6], [1, 2, 5, 6], [1, 3, 4, 6], [1, 4, 4, 5],
        [2, 2, 3, 7], [2, 3, 4, 5], [2, 4, 4, 4], [3, 3, 3, 5], [3, 3, 4, 4],
    ],
}


@pytest.fixture(scope="module")
def gate_instances():
    rng = random.Random(4)
    instances = [level_set_instance(rng, "hilbert" if k % 3 == 2 else "slope") for k in range(100)]
    # Degree-2 polynomials: leading costs cancel but at the steps of lower degree.
    return instances + [level_set_instance(rng, "hilbert", degree=2) for _ in range(30)]


def test_lp_decide_matches_the_per_pivot_oracle(gate_instances):
    classes = set()
    for fs, ps, sp in gate_instances:
        for strictness in ("semi", "stable"):
            got = decide_destabilizing(fs, ps, sp, strictness)
            assert repr(got) == repr(oracles.decide_destabilizing(fs, ps, sp, strictness))
            classes.add((sp.mode, strictness, got.classification))
        assert repr(region_minima(fs, ps, sp)) == repr(oracles.region_minima(fs, ps, sp))
    assert {fs.s for fs, _, _ in gate_instances} == {1, 2, 3, 4}
    assert len(classes) == 16  # every verdict class in both modes and strictnesses


def test_slope_minimum_matches_sympy_lpmin(gate_instances):
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import lpmin

    slope = [(fs, ps, sp) for fs, ps, sp in gate_instances if sp.mode == "slope"]
    for fs, ps, sp in slope[:30]:
        s = fs.s
        free = sympy.symbols(f"w1:{s}")
        z = sympy.Symbol("z")
        # SymPy 1.14 returns infeasible points when sum w = 1 is stated as an
        # equality (or as two inequalities), so the last weight is eliminated.
        w = [*free, 1 - sum(free)]
        bounds = [x >= 0 for x in w] + [z - sum(c * x for c, x in zip(g, w)) >= 0
                                        for g in _pivot_coeffs(ps, s).values()]
        objective = sum(sympy.Rational(str(c)) * x for c, x in zip(constants(fs, sp), w))
        objective += fs.total.rank * sympy.Rational(str(sp.delta)) * z
        value, _ = lpmin(objective, [b for b in bounds if b is not sympy.true])
        assert F(int(value.p), int(value.q)) == decide_destabilizing(fs, ps, sp).min_value


def test_vertex_keys_give_the_step_conditions(gate_instances):
    # Key i lists the cost rows' entries of c_i + r delta k_i, leading degree
    # first, so its first nonzero entry has the sign of step i's value:
    # check_k_semistable follows the formula.  The decide's own conditions are
    # held to it by the whole-verdict comparison with the oracle.
    signs = set()
    for fs, ps, sp in gate_instances:
        for strict in (False, True):
            assert check_k_semistable(fs, ps, sp, strict) == oracles.check_k_semistable(
                fs, ps, sp, strict
            )
        values = oracles.step_values(fs, ps, sp)
        signs |= {(sp.mode, v > 0, not (v < 0 or v > 0)) for v in values}
    assert signs == {(mode, *sign) for mode in ("slope", "hilbert")
                     for sign in ((False, False), (True, False), (False, True))}


def _lp_face(fs, ps, sp):
    """The pivot coefficients, the LP's zero columns and its optimal face."""
    gs = list(_pivot_coeffs(ps, fs.s).values())
    costs = _lp_costs(constants(fs, sp), fs.total.rank * sp.delta, len(gs))
    tableau, basis = _start(costs, gs, fs.s)
    zero = simplex(tableau, basis, costs)
    return gs, zero, enumerate_vertices(tableau, basis, zero, implied=(fs.s,))


def _oracle_face(gs, s, zero):
    """Vertices (w, z) of {sum w = 1, w >= 0, z >= 0, z >= g_k . w} with each LP
    column in `zero` (w_j, z or the slack z - g_k . w) at 0, by the Fraction oracle."""
    unit = [[int(c == j) for c in range(s + 1)] for j in range(s + 1)]
    bounds = [oracles.make_row(row, 0) for row in unit]
    bounds += [oracles.make_row([-x for x in g] + [1], 0) for g in gs]
    eqs = [oracles.make_row([1] * s + [0], 1)] + [bounds[j] for j in zero]
    return oracles.enumerate_vertices(eqs, bounds, s + 1)


def test_optimal_face_matches_the_oracle_face(gate_instances):
    sizes = set()
    for fs, ps, sp in gate_instances:
        s = fs.s
        gs, zero, face = _lp_face(fs, ps, sp)
        assert [v[: s + 1] for v in face] == _oracle_face(gs, s, zero)
        for v in face:  # the slacks are z - g_k . w
            assert list(v[s + 1 :]) == [v[s] - sum(a * x for a, x in zip(g, v)) for g in gs]
        sizes.add((sp.mode, len(face)))
    assert sizes == {("slope", 1), ("slope", 2), ("hilbert", 1)}

    # A segment face at a positive minimum: one free column, w[1], with z = 2
    # all along; the slack of the pivot (2, 2, 2), g = (0, 3, 3), is 1/2 where
    # w[1] = 0.
    fs = FiltrationSpec(3, 1, SheafData(4, 0), tuple(SheafData(r, 0) for r in (1, 2, 3)))
    ps = PivotSet.from_tuples([(1, 1, 4), (1, 2, 3), (2, 2, 2)], t=4, arity=3)
    gs, zero, face = _lp_face(fs, ps, StabilityParam.slope(F(3)))
    assert zero == [4, 5]
    assert face == [(F(1, 3), F(1, 3), F(1, 3), F(2), F(0), F(0), F(0)),
                    (F(1, 2), F(0), F(1, 2), F(2), F(0), F(0), F(1, 2))]
    assert [v[:4] for v in face] == _oracle_face(gs, 3, zero)

    # A zero minimum on the segment [(1/2, 1/2), (1, 0)], as in the marginal test.
    fs = FiltrationSpec(4, 1, SheafData(4, 0), (SheafData(2, 0), SheafData(3, 0)))
    ps = PivotSet.from_tuples([(1, 1, 2, 3), (1, 2, 2, 2)], t=3, arity=4)
    gs, zero, face = _lp_face(fs, ps, StabilityParam.slope(F(1, 2)))
    assert zero == [3]
    assert face == [(F(1, 2), F(1, 2), F(5, 2), F(0), F(0)), (F(1), F(0), F(2), F(0), F(1))]
    assert [v[:3] for v in face] == _oracle_face(gs, 2, zero)


def test_optimal_face_does_not_depend_on_the_start(gate_instances):
    # Decide, --trace and check_splitting read the whole optimal set off one
    # final tableau, so every feasible start must leave the same face: start at
    # each simplex vertex e_i as `_start` would, for each of the three cost rows.
    for fs, ps, sp in gate_instances:
        s = fs.s
        gs = list(_pivot_coeffs(ps, s).values())
        kinds = (
            _lp_costs(constants(fs, sp), fs.total.rank * sp.delta, len(gs)),
            [[0] * (s + 1 + len(gs))],
            [[0] * (s + 1) + [1] * len(gs)],
        )
        for costs in kinds:
            face = _face(costs, gs, s)
            for i in range(s):
                top = max(g[i] for g in gs)
                k0 = next(k for k, g in enumerate(gs) if g[i] == top)
                tableau = _epigraph(gs, s)
                basis = [i] + [s if k == k0 else s + 1 + k for k in range(len(gs))]
                zero = simplex(tableau, basis, costs)
                assert enumerate_vertices(tableau, basis, zero, implied=(s,)) == face
                assert enumerate_vertices(tableau, basis, zero) == face  # z >= 0 adds nothing


def test_optimal_face_counts_a_vertex_once_whatever_its_rows_scale():
    # Canonical rows x0 + 2 x1 = 2 and x1 + x2 = 1 over the basis x0, x2: in the
    # free column x1 they read -2 x1 >= -2 and -x1 >= -1, tight at the same end.
    face = enumerate_vertices([[1, 2, 0, 2], [0, 1, 1, 1]], [0, 2], [])
    assert face == [(F(0), F(1), F(0)), (F(2), F(0), F(1))]


def test_simplex_compares_cost_rows_lexicographically():
    def solve(costs):  # minimize over x0 + x1 + x2 = 1, x >= 0, from x = e_0
        basis = [0]
        return simplex([[1, 1, 1, 1]], basis, costs), basis

    # The leading row ties; the second alone lets x2 enter and fixes x0, x1 at 0.
    assert solve([[2, 2, 2], [0, 3, -1]]) == ([0, 1], [2])
    assert solve([[2, 2, 2]]) == ([], [0])
    # The leading row outranks the second: x1 costs more first, however cheap next.
    assert solve([[0, 1, 0], [0, -5, -1]]) == ([0, 1], [2])
    assert solve([[0, -5, -1]]) == ([0, 2], [1])


def test_simplex_starts_from_rows_as_written():
    # Minimize x0 + 2 x1 over x0 + x1 + x2 = 1, x0 - x2 - x3 = 0, x >= 0 from the
    # basis x0, x3 at x = (1, 0, 0, 1); the optimum is x = (1/2, 0, 1/2, 0).  As
    # written, row 1's basic entry is -1, and rescaling a row by a nonzero
    # factor or writing the canonical form by hand changes no pivot.
    canonical = [[1, 1, 1, 0, 1], [0, 1, 2, 1, 1]]
    for tableau in (
        [[1, 1, 1, 0, 1], [1, 0, -1, -1, 0]],
        [[-2, -2, -2, 0, -2], [-1, 0, 1, 1, 0]],
        canonical,
    ):
        basis = [0, 3]
        assert simplex(tableau, basis, [[1, 2, 0, 0]]) == [1, 3]
        assert basis == [0, 2]
        # The final rows are left in the tableau, and the face is read off them.
        assert enumerate_vertices(tableau, basis, [1, 3]) == [(F(1, 2), F(0), F(1, 2), F(0))]


def test_marginal_witness_is_the_centroid_of_the_last_positive_region():
    # The value vanishes on the segment [(1/2, 1/2), (1, 0)], all of it in the
    # first pivot's region (centroid (3/4, 1/4)); the second region meets it
    # only at (1/2, 1/2).  Both centroids are positive; the later pivot's wins.
    fs = FiltrationSpec(4, 1, SheafData(4, 0), (SheafData(2, 0), SheafData(3, 0)))
    ps = PivotSet.from_tuples([(1, 1, 2, 3), (1, 2, 2, 2)], t=3, arity=4)
    sp = StabilityParam.slope(F(1, 2))
    verdict = decide_destabilizing(fs, ps, sp)
    assert verdict.classification == MARGINALLY_DESTABILIZED
    assert verdict.witness == (F(1, 2), F(1, 2))
    assert verdict.attaining_pivot == (1, 1, 2, 3)
    assert repr(verdict) == repr(oracles.decide_destabilizing(fs, ps, sp))


def test_decide_at_s6_p10_solves_few_tight_systems(monkeypatch):
    fs, ps, sp, _ = parse_instance(S6_P10)
    solve = destab.polytope.solve_unique
    calls = []
    monkeypatch.setattr(
        destab.polytope, "solve_unique", lambda rows, dim: calls.append(dim) or solve(rows, dim)
    )
    verdict = decide_destabilizing(fs, ps, sp)
    assert 1 <= len(calls) <= 100
    assert verdict.min_value == F(-239, 5)
    assert verdict.witness == (F(1, 5), F(2, 5), F(0), F(2, 5), F(0), F(0))
    assert verdict.attaining_pivot == (1, 1, 5, 7)
    assert verdict.violated


def test_enumeration_guard_refuses_with_exit_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("DESTAB_GUARD", "2")
    fs, ps, sp = rank6()
    with pytest.raises(InstanceError, match=r"vertex enumeration too large: 20 tight subsets"):
        region_minima(fs, ps, sp)  # C(6, 3): three weights, three bounds, three pivots
    one_pivot = PivotSet.from_tuples([(2, 2, 3, 4)], t=4, arity=4)
    with pytest.raises(InstanceError, match=r"\(C\(3, 2\)\) > 2"):
        check_splitting(fs, one_pivot)
    assert decide_destabilizing(fs, ps, sp).min_value == F(-4, 3)  # a 0-dimensional face

    path = tmp_path / "rank6.json"
    path.write_text(json.dumps(RANK6_INSTANCE), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    capsys.readouterr()
    assert main(["check", str(path), "--trace"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: vertex enumeration too large")
