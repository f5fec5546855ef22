import contextlib
import io
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import destab
from destab.cli import build_parser, main
from destab.combinatorics import brute_maxp
from destab.instances import parse_instance, instance_json
from destab.model import InstanceError
from util import RANK6_INSTANCE


def write_json(tmp_path, obj, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PASSING_INSTANCE = {
    "mode": "slope",
    "arity": 2,
    "total": {"rank": 2, "degree": 0},
    "steps": [{"rank": 1, "degree": -5}],
    "delta": "1",
    "pivots": [[2, 2]],
}


def test_check_with_weights_reports_exact_values(tmp_path, capsys):
    instance = dict(RANK6_INSTANCE, weights=["4", "2", "6"])
    code, out, _ = run(capsys, ["check", write_json(tmp_path, instance)])
    assert code == 1
    report = json.loads(out)
    assert report["value"] == "-16"
    assert report["mu"] == "-16"
    assert report["r_max"] == "24"
    assert report["k_values"] == [2, 3, 4]
    assert report["violated"] is True


def test_check_without_weights_decides(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", write_json(tmp_path, RANK6_INSTANCE)])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"]["classification"] == "strictly-destabilized"
    assert report["verdict"]["min_value"] == "-4/3"
    assert report["verdict"]["witness"] == ["1/3", "1/6", "1/2"]


def test_check_trace_lists_regions(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", "--trace", write_json(tmp_path, RANK6_INSTANCE)])
    assert code == 1
    report = json.loads(out)
    assert len(report["regions"]) == 3
    for region in report["regions"]:
        assert region["vertices"]


def test_check_passing_instance(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", write_json(tmp_path, PASSING_INSTANCE)])
    assert code == 0
    report = json.loads(out)
    assert report["violated"] is False


def test_check_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PASSING_INSTANCE)))
    code, out, _ = run(capsys, ["check", "-"])
    assert code == 0


def test_check_rejects_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, ["check", write_json(tmp_path, {"mode": "slope"})])
    assert code == 2

    bad_weights = dict(RANK6_INSTANCE, weights=["0", "1", "1"])
    code, _, err = run(capsys, ["check", write_json(tmp_path, bad_weights)])
    assert code == 2

    code, _, err = run(capsys, ["check", str(tmp_path / "missing.json")])
    assert code == 2


@pytest.mark.parametrize("argv", [["check"], ["reduce"], ["p1", "check"]])
@pytest.mark.parametrize("stdin", [False, True])
def test_deeply_nested_json_is_malformed_input(tmp_path, capsys, monkeypatch, argv, stdin):
    text = "[" * 100_000 + "]" * 100_000
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        source = "-"
    else:
        source = str(tmp_path / "deep.json")
        (tmp_path / "deep.json").write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [*argv, source])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read instance {source!r}: maximum recursion depth")
    assert err.count("\n") == 1


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="this Python converts integers of any length")
@pytest.mark.parametrize("argv", [["check"], ["reduce"], ["p1", "check"]])
def test_json_integer_beyond_the_digit_limit_is_malformed_input(tmp_path, capsys, argv):
    huge = "1" * (INT_DIGIT_LIMIT + 1)
    if argv[0] == "p1":
        text = '{"degrees": [%s, 0, 0], "support": [[1, 1, 1]]}' % huge
    else:
        text = json.dumps(RANK6_INSTANCE).replace('"degree": 36', f'"degree": {huge}')
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [*argv, str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read instance {str(path)!r}: Exceeds the limit")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "patch, prefix",
    [
        ({"steps": [{"rank": "7" * 3000, "degree": 0}]}, "error: steps[0].rank: expected an integer, got '777"),
        ({"steps": "x" * 3000}, "error: steps: expected a list, got 'xxx"),
        ({"delta": "x" * 3000}, "error: delta: invalid rational 'xxx"),
        ({"weights": ["0" * 3000, "1", "1"]}, "error: weights[0]: expected a positive rational, got '000"),
        (
            {"mode": "hilbert", "total": {"rank": 6, "degree": 36, "hilbert": "x" * 3000}},
            "error: total.hilbert: expected a coefficient list, got 'xxx",
        ),
    ],
)
def test_long_input_values_are_cut_in_error_messages(tmp_path, capsys, patch, prefix):
    code, out, err = run(capsys, ["check", write_json(tmp_path, dict(RANK6_INSTANCE, **patch))])
    assert code == 2 and out == ""
    assert err.startswith(prefix) and "…" in err
    assert len(err) < 200 and err.count("\n") == 1


def test_reduce_rank6_keeps_all_steps(tmp_path, capsys):
    code, out, _ = run(capsys, ["reduce", write_json(tmp_path, RANK6_INSTANCE)])
    assert code == 1
    report = json.loads(out)
    assert report["subset"] == [1, 2, 3]
    assert len(report["trace"]) == 3
    assert all(not entry["violated"] for entry in report["trace"])
    # reduce ignores weights, even of the wrong count
    with_weights = dict(RANK6_INSTANCE, weights=["1"])
    assert run(capsys, ["reduce", write_json(tmp_path, with_weights)]) == (1, out, "")


def test_reduce_rejects_non_violating_instance(tmp_path, capsys):
    code, _, err = run(capsys, ["reduce", write_json(tmp_path, PASSING_INSTANCE)])
    assert code == 2
    assert "nothing to reduce" in err
    assert err.startswith("error: ")


def _hilbert(instance, total, step, delta):
    """The same instance in hilbert mode, with the given polynomials; None
    leaves a sheaf without one."""

    def sheaf(sd, poly):
        return sd if poly is None else dict(sd, hilbert=poly)

    return dict(
        instance,
        mode="hilbert",
        total=sheaf(instance["total"], total),
        steps=[sheaf(instance["steps"][0], step)],
        delta=delta,
    )


def _with_step_rank(rank):
    steps = [dict(RANK6_INSTANCE["steps"][0], rank=rank)] + RANK6_INSTANCE["steps"][1:]
    return dict(RANK6_INSTANCE, steps=steps)


@pytest.mark.parametrize(
    "instance, path",
    [
        (dict(RANK6_INSTANCE, arity=4.9), "arity"),
        (dict(RANK6_INSTANCE, arity=True), "arity"),
        (_with_step_rank(1.7), "steps[0].rank"),
        (_with_step_rank(True), "steps[0].rank"),
        (dict(RANK6_INSTANCE, multiplicity="1"), "multiplicity"),
        (dict(RANK6_INSTANCE, pivots=["1144", [2, 2, 2, 4], [3, 3, 3, 3]]), "pivots[0]"),
        (dict(RANK6_INSTANCE, pivots=[[1, 1, 4, 4], [2, 2, 2.0, 4]]), "pivots[1][2]"),
    ],
)
@pytest.mark.parametrize("command", ["check", "reduce"])
def test_non_integer_fields_are_rejected_by_path(tmp_path, capsys, instance, path, command):
    code, out, err = run(capsys, [command, write_json(tmp_path, instance)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: expected ")


STRUCTURAL_ERRORS = [
    ([RANK6_INSTANCE], "instance: expected an object"),
    (
        dict(RANK6_INSTANCE, mode="gieseker"),
        "mode: expected 'slope' or 'hilbert', got 'gieseker'",
    ),
    (dict(RANK6_INSTANCE, steps={"rank": 1}), "steps: expected a list, got {'rank': 1}"),
    (dict(RANK6_INSTANCE, steps=[3]), "steps[0]: expected an object"),
    (dict(RANK6_INSTANCE, pivots="1144"), "pivots: expected a list, got '1144'"),
    (dict(RANK6_INSTANCE, pivots=[]), "pivots: expected a nonempty list, got []"),
    (dict(RANK6_INSTANCE, weights="1"), "weights: expected a list, got '1'"),
    (
        dict(RANK6_INSTANCE, weights=["1", "0", "2"]),
        "weights[1]: expected a positive rational, got '0'",
    ),
    (
        dict(RANK6_INSTANCE, weights=["1", "2", "-1/2"]),
        "weights[2]: expected a positive rational, got '-1/2'",
    ),
    (dict(RANK6_INSTANCE, delta="0"), "delta: slope parameter must be positive"),
    (
        _hilbert(PASSING_INSTANCE, ["0", "2"], ["-5", "1"], ["1", "-1"]),
        "delta: polynomial parameter needs a positive leading coefficient",
    ),
    (
        dict(RANK6_INSTANCE, pivots=[[1, 1, 4, 4], [1, 2, 2, 5]]),
        "pivots[1]: tuple (1, 2, 2, 5) has entries outside 1..4",
    ),
    (
        dict(PASSING_INSTANCE, pivots=[[2, 2], [1, 2, 2, 2]]),
        "pivots[1]: tuple (1, 2, 2, 2) does not have arity 2",
    ),
    (dict(PASSING_INSTANCE, pivots=[[2, 1]]), "pivots[0]: tuple (2, 1) is not nondecreasing"),
    (dict(RANK6_INSTANCE, arity=0, pivots=[[]]), "arity: expected a positive integer, got 0"),
    (dict(RANK6_INSTANCE, multiplicity=0), "multiplicity: expected a positive integer, got 0"),
    (
        dict(RANK6_INSTANCE, total={"rank": 0, "degree": 0}),
        "total.rank: expected a positive integer, got 0",
    ),
    (_with_step_rank(0), "steps[0].rank: expected a rank above 0, got 0"),
    (_with_step_rank(3), "steps[1].rank: expected a rank above 3, got 3"),
    (
        dict(RANK6_INSTANCE, steps=RANK6_INSTANCE["steps"][:2] + [{"rank": 6, "degree": 0}]),
        "steps[2].rank: expected a rank below the total rank 6, got 6",
    ),
    (
        _hilbert(PASSING_INSTANCE, ["0", "2"], None, ["1"]),
        "steps[0].hilbert: expected a coefficient list in hilbert mode",
    ),
    (
        _hilbert(PASSING_INSTANCE, None, ["-5", "1"], ["1"]),
        "total.hilbert: expected a coefficient list in hilbert mode",
    ),
    (
        dict(RANK6_INSTANCE, steps=[], pivots=[[1, 1, 1, 1]]),
        "steps: expected at least one step, got []",
    ),
    (
        dict(RANK6_INSTANCE, steps=[], pivots=[[1, 1, 1, 1]], weights=[]),
        "steps: expected at least one step, got []",
    ),
]


@pytest.mark.parametrize("instance, message", STRUCTURAL_ERRORS)
@pytest.mark.parametrize("command", ["check", "reduce"])
def test_structural_errors_name_their_json_path(tmp_path, capsys, instance, message, command):
    code, out, err = run(capsys, [command, write_json(tmp_path, instance)])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# A zero minimum attained only at e_2: step 2's subfiltration has value 0.
BOUNDARY_ZERO_INSTANCE = {
    "arity": 1,
    "total": {"rank": 3, "degree": -2},
    "steps": [{"rank": 1, "degree": -4}, {"rank": 2, "degree": -2}],
    "delta": "1",
    "pivots": [[3]],
}


def test_strict_check_fails_on_a_boundary_zero_minimum(tmp_path, capsys):
    path = write_json(tmp_path, BOUNDARY_ZERO_INSTANCE)
    code, out, _ = run(capsys, ["check", "--strict", path])
    report = json.loads(out)
    assert code == 1 and report["violated"] is True
    assert report["verdict"]["classification"] == "boundary-witness"
    assert report["verdict"]["violated"] is True
    assert report["step_conditions"] == [True, False]
    code, out, _ = run(capsys, ["check", path])
    assert code == 0 and json.loads(out)["violated"] is False


def test_strict_reduce_shrinks_a_boundary_zero_minimum(tmp_path, capsys):
    code, out, _ = run(capsys, ["reduce", "--strict", write_json(tmp_path, BOUNDARY_ZERO_INSTANCE)])
    report = json.loads(out)
    assert code == 1
    assert report["subset"] == [2] and report["witness"] == ["1"]


def test_check_counts_weights_per_step(tmp_path, capsys):
    # `reduce` ignores weights, so only `check` counts them.
    instance = dict(RANK6_INSTANCE, weights=["1"])
    code, out, err = run(capsys, ["check", write_json(tmp_path, instance)])
    assert code == 2 and out == ""
    assert err == "error: weights: expected one per step (3), got 1\n"


@pytest.mark.parametrize(
    "tensor, path",
    [
        ({"degrees": [-1, 0, 1.0], "support": [[1, 1, 1]]}, "degrees[2]"),
        ({"degrees": [-1, 0, 1], "support": [[1, True, 1]]}, "support[0][1]"),
        ({"degrees": [-1, 0, 1], "support": ["111"]}, "support[0]"),
    ],
)
def test_p1_non_integer_fields_are_rejected_by_path(tmp_path, capsys, tensor, path):
    code, _, err = run(capsys, ["p1", "check", write_json(tmp_path, tensor)])
    assert code == 2
    assert err.startswith(f"error: {path}: expected ")


@pytest.mark.parametrize(
    "instance, path, message",
    [
        (dict(RANK6_INSTANCE, delta=0.5), "delta", "expected a rational string, got 0.5"),
        (dict(RANK6_INSTANCE, delta="1/0"), "delta", "invalid rational '1/0'"),
        (
            _hilbert(PASSING_INSTANCE, ["0", "2"], ["-5", "1"], "x"),
            "delta",
            "expected a coefficient list, got 'x'",
        ),
        (
            _hilbert(PASSING_INSTANCE, ["0", "2"], ["-5", "1"], ["1", 0.5]),
            "delta[1]",
            "expected a rational string, got 0.5",
        ),
        (
            dict(RANK6_INSTANCE, weights=["1", 0.5, "1"]),
            "weights[1]",
            "expected a rational string, got 0.5",
        ),
        (
            dict(_hilbert(PASSING_INSTANCE, ["0", "2"], ["-5", "1"], ["1"]), weights=["x"]),
            "weights[0]",
            "invalid rational 'x'",
        ),
        (
            _hilbert(PASSING_INSTANCE, ["0", "2"], "x", ["1"]),
            "steps[0].hilbert",
            "expected a coefficient list, got 'x'",
        ),
        (
            _hilbert(PASSING_INSTANCE, ["0", True], ["-5", "1"], ["1"]),
            "total.hilbert[1]",
            "expected a rational string, got True",
        ),
        # Fraction would compute 10**exp first, for seconds or minutes.
        (
            dict(RANK6_INSTANCE, delta="1e10000000"),
            "delta",
            "invalid rational '1e10000000': exponents are not accepted\n",
        ),
        (
            dict(RANK6_INSTANCE, weights=["1", "2E999999", "1"]),
            "weights[1]",
            "invalid rational '2E999999': exponents are not accepted\n",
        ),
        (
            _hilbert(PASSING_INSTANCE, ["0", "2"], ["-5", "1e3"], ["1"]),
            "steps[0].hilbert[1]",
            "invalid rational '1e3': exponents are not accepted\n",
        ),
        (
            _hilbert(PASSING_INSTANCE, ["0", "2"], ["-5", "1"], ["1.5e-9"]),
            "delta[0]",
            "invalid rational '1.5e-9': exponents are not accepted\n",
        ),
    ],
)
@pytest.mark.parametrize("command", ["check", "reduce"])
def test_rational_and_polynomial_fields_are_rejected_by_path(
    tmp_path, capsys, instance, path, message, command
):
    start = time.perf_counter()
    code, out, err = run(capsys, [command, write_json(tmp_path, instance)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {message}")


def test_decimal_rationals_stay_accepted(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", write_json(tmp_path, dict(PASSING_INSTANCE, delta="1.5"))])
    assert code == 0 and json.loads(out)["instance"]["delta"] == "3/2"


def _tensor(degrees, support, **extra):
    return {"degrees": degrees, "support": support, **extra}


P1_ERRORS = [
    (_tensor([0, 0, 1], [[1]]), "degrees: expected three integers summing to 0, got [0, 0, 1]"),
    (_tensor([0, 0], [[1]]), "degrees: expected three integers summing to 0, got [0, 0]"),
    (_tensor([1, 0, -1], [[1, 1, 1]]), "degrees: expected a nondecreasing order, got [1, 0, -1]"),
    (
        _tensor([0, 0, 0], [[1, 1, 1]], delta="-1/2"),
        "delta: expected a positive rational, got -1/2",
    ),
    (_tensor([0, 0, 0], []), "support: expected a nonempty list, got []"),
    (
        _tensor([0, 0, 0], [[4, 1, 4]]),
        "support: expected multisets of 3 indices in 1..3, got [1, 4, 4]",
    ),
    (_tensor([0, 0, 0], [[1, 2]]), "support: expected multisets of 3 indices in 1..3, got [1, 2]"),
    (_tensor([-2, 1, 1], [[3, 2, 3]]), "support: expected degree sums <= 0, got [2, 3, 3]"),
    ([1], "tensor: expected an object, got [1]"),
]


@pytest.mark.parametrize("tensor, message", P1_ERRORS)
def test_p1_tensor_errors_name_their_json_path(tmp_path, capsys, tensor, message):
    code, out, err = run(capsys, ["p1", "check", write_json(tmp_path, tensor)])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_p1_delta_errors_name_their_source(tmp_path, capsys):
    tensor = {"degrees": [0, 0, 0], "support": [[1, 2, 3]]}
    code, _, err = run(capsys, ["p1", "check", write_json(tmp_path, tensor), "--delta", "1/0"])
    assert code == 2 and err.startswith("error: --delta: invalid rational '1/0'")
    for argv, source in (
        (["check", write_json(tmp_path, dict(tensor, delta="1e10000000"), "exp.json")], "delta"),
        (["check", write_json(tmp_path, tensor), "--delta", "1e10000000"], "--delta"),
        (["classify", "--delta", "1e10000000"], "--delta"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, ["p1", *argv])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: {source}: invalid rational '1e10000000': exponents are not accepted\n"
    code, _, err = run(capsys, ["p1", "check", write_json(tmp_path, dict(tensor, delta=0.5))])
    assert code == 2 and err.startswith("error: delta: expected a rational string, got 0.5")
    for argv in (["check", write_json(tmp_path, tensor)], ["classify"]):
        code, out, err = run(capsys, ["p1", *argv, "--delta", "0"])
        assert code == 2 and out == ""
        assert err == "error: --delta: expected a positive rational, got 0\n"


def test_p1_classify_bound_is_checked_and_guarded(monkeypatch, capsys):
    code, out, err = run(capsys, ["p1", "classify", "--bound", "-1"])
    assert code == 2 and out == ""
    assert err == "error: --bound: expected a nonnegative integer, got -1\n"
    code, out, err = run(capsys, ["p1", "classify", "--bound", "100"])
    assert code == 2 and out == ""
    assert err == "error: --bound: classify would decide 410973 tensors > 100000\n"
    monkeypatch.setenv("DESTAB_GUARD", "1000")
    code, out, err = run(capsys, ["p1", "classify"])  # bound 0: 1023 tensors
    assert code == 2 and out == ""
    assert err == "error: --bound: classify would decide 1023 tensors > 1000\n"


# One step of rank 1 and degree 0 in a rank-2 sheaf of degree D, arity 1, delta 1,
# pivot (2,): the value at weight 2 is 2 * (D - 1).  In hilbert mode, total
# D + 3x, step x and delta 1 + x give the same constant polynomial.
def _weighted(total_degree, mode):
    instance = {
        "mode": "slope",
        "arity": 1,
        "total": {"rank": 2, "degree": total_degree},
        "steps": [{"rank": 1, "degree": 0}],
        "delta": "1",
        "pivots": [[2]],
        "weights": ["2"],
    }
    if mode == "hilbert":
        instance = _hilbert(instance, [str(total_degree), "3"], ["0", "1"], ["1", "1"])
    return instance


@pytest.mark.parametrize("mode", ["slope", "hilbert"])
@pytest.mark.parametrize(
    "total_degree, value, semi_violated, strict_violated",
    [(0, -2, True, True), (1, 0, False, True), (2, 2, False, False)],
)
@pytest.mark.parametrize("flag", ["--semi", "--strict"])
def test_weighted_check_verdict(
    tmp_path, capsys, mode, total_degree, value, semi_violated, strict_violated, flag
):
    path = write_json(tmp_path, _weighted(total_degree, mode))
    code, out, _ = run(capsys, ["check", flag, path])
    violated = strict_violated if flag == "--strict" else semi_violated
    assert code == (1 if violated else 0)
    report = json.loads(out)
    assert report["violated"] is violated
    expected = str(value) if mode == "slope" else ([str(value)] if value else [])
    assert report["value"] == expected


def test_comb_values(capsys):
    code, out, _ = run(capsys, ["comb", "f", "3", "3", "6"])
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, ["comb", "maxp", "2", "7"])
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, ["comb", "partitions", "3", "6"])
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, ["comb", "qbinom", "4", "2"])
    assert code == 0 and json.loads(out) == [1, 1, 2, 1, 1]


def test_comb_verify(capsys):
    code, out, _ = run(capsys, ["comb", "verify", "3", "3"])
    assert code == 0
    assert out.count("pass") == 3


@pytest.mark.parametrize(
    "argv, value", [(["partitions", "2", "5000"], "2500"), (["f", "2", "3000", "3000"], "1500")]
)
def test_comb_large_arguments_do_not_recurse(capsys, argv, value):
    code, out, _ = run(capsys, ["comb", *argv])
    assert code == 0 and out.strip() == value


@pytest.mark.parametrize(
    "argv, names",
    [
        (["maxp", "3", "2000"], "a, t"),
        (["verify", "2", "3000"], "a, t"),
        (["f", "6", "1000", "3500"], "a, t"),
        (["partitions", "5000", "10000"], "k, n"),
        (["qbinom", "200", "100"], "k, n"),
    ],
)
def test_comb_refuses_oversized_arguments(capsys, argv, names):
    code, out, err = run(capsys, ["comb", *argv])
    assert code == 2 and out == ""
    assert err == f"error: {names}: comb {argv[0]} would take more than 5000000 steps\n"


def test_comb_guard_follows_destab_guard(capsys, monkeypatch):
    monkeypatch.setenv("DESTAB_GUARD", "100")  # C(12, 3) = 220 ordered 3-tuples over 1..10
    code, _, err = run(capsys, ["comb", "maxp", "3", "10"])
    assert code == 2 and err == "error: a, t: comb maxp would take more than 100 steps\n"


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_invalid_destab_guard_is_named(tmp_path, capsys, monkeypatch, value):
    path = write_json(tmp_path, PASSING_INSTANCE)
    monkeypatch.setenv("DESTAB_GUARD", value)
    for argv in (["check", path], ["comb", "maxp", "3", "4"], ["p1", "classify", "--bound", "0"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: DESTAB_GUARD: expected a positive integer, got '{value}'\n"
    with pytest.raises(InstanceError, match="^DESTAB_GUARD: expected a positive integer"):
        brute_maxp(2, 3)


def test_p1_check_trivial_diagonal(tmp_path, capsys):
    path = write_json(
        tmp_path, {"degrees": [0, 0, 0], "support": [[1, 2, 3]], "delta": "1"}
    )
    code, out, _ = run(capsys, ["p1", "check", path])
    assert code == 0
    assert json.loads(out)["semistable"] is True


def test_p1_check_violating(tmp_path, capsys):
    path = write_json(tmp_path, {"degrees": [-2, 1, 1], "support": [[1, 3, 3]]})
    code, out, _ = run(capsys, ["p1", "check", path, "--delta", "1"])
    assert code == 1
    assert json.loads(out)["semistable"] is False


def test_p1_check_rejects_bad_tensor(tmp_path, capsys):
    path = write_json(tmp_path, {"degrees": [0, 0, 1], "support": [[1, 1, 1]]})
    code, _, err = run(capsys, ["p1", "check", path])
    assert code == 2


def test_p1_classify(capsys):
    code, out, _ = run(capsys, ["p1", "classify", "--bound", "0", "--delta", "1"])
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 1023


def test_p1_classify_bound_1_report_is_pinned(capsys):
    code, out, _ = run(capsys, ["p1", "classify", "--bound", "1"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1213
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "9894f134b821d9612e416e1838b8f77ec16ddfff1556792c8ee76fdffc17ce2e"


@pytest.mark.parametrize(
    "delta, digest",
    [
        ("1", "5194986021f1447ba1628f503fc43e82bf1418a73f957d49a5ea98a513f8fb2e"),
        ("1/2", "e4ce7772ee83cd820d300bc0f5091d14eb94d88b1e69acbb7a93f73adc3b1546"),
    ],
)
def test_p1_classify_bound_2_report_is_pinned(capsys, delta, digest):
    # Recorded when every flag decide still solved its own LP.
    code, out, _ = run(capsys, ["p1", "classify", "--bound", "2", "--delta", delta])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1529
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, dict(RANK6_INSTANCE, weights=["4", "2", "6"]))
    _, first, _ = run(capsys, ["check", path])
    _, second, _ = run(capsys, ["check", path])
    assert first == second


def _session(argvs, fresh):
    """(exit code, stdout, stderr) of `main` on each argv in turn; with `fresh`
    the parser is built again before every call."""
    results = []
    for argv in argvs:
        if fresh:
            build_parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def test_one_parser_serves_a_session_like_fresh_ones(tmp_path):
    path = write_json(tmp_path, RANK6_INSTANCE)
    tensor = write_json(tmp_path, {"degrees": [-2, 1, 1], "support": [[1, 3, 3]]}, "tensor.json")
    argvs = [
        ["check", "--strict", path],
        [],
        ["comb"],
        ["check", path],
        ["check", "--strict", "--semi", path],
        ["reduce", "--strict", path],
        ["reduce", path],
        ["p1", "classify", "--bound", "x"],
        ["comb", "maxp", "3", "4"],
        ["check", "--trace", path],
        ["--help"],
        ["p1", "check", tensor, "--delta", "1/2"],
        ["p1", "check", tensor],
    ]
    build_parser.cache_clear()
    shared = _session(argvs, fresh=False)
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [1, 2, 2, 1, 2, 1, 1, 2, 0, 1, 0, 1, 1]
    assert _session(argvs, fresh=True) == shared


def test_build_parser_returns_one_parser():
    assert build_parser() is build_parser()


def test_importing_the_cli_builds_no_parser():
    src = pathlib.Path(destab.__file__).resolve().parent.parent
    probe = "import destab.cli as cli; print(cli.build_parser.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "0\n"


def test_no_floats_in_reports(tmp_path, capsys):
    _, out, _ = run(capsys, ["check", "--trace", write_json(tmp_path, RANK6_INSTANCE)])

    def scan(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)

    scan(json.loads(out))


def test_instance_round_trip():
    fs, ps, sp, weights = parse_instance(dict(RANK6_INSTANCE, weights=["4", "2", "6"]))
    again = parse_instance(instance_json(fs, ps, sp, weights))
    assert again == (fs, ps, sp, weights)


def test_instance_round_trip_polynomial_mode():
    instance = {
        "mode": "hilbert",
        "arity": 1,
        "total": {"rank": 2, "degree": 0, "hilbert": ["2", "2"]},
        "steps": [{"rank": 1, "degree": 0, "hilbert": ["1", "1"]}],
        "delta": ["1"],
        "pivots": [[1]],
    }
    parsed = parse_instance(instance)
    assert parse_instance(instance_json(*parsed)) == parsed


# CLI fuzzing: small random JSON documents, and known-good instances and
# tensors with one value replaced, through every command that reads a file.
_KEYS = [
    "mode", "arity", "multiplicity", "total", "steps", "rank", "degree", "hilbert",
    "delta", "pivots", "weights", "degrees", "support",
]
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(-3, 3)
    | st.sampled_from(["1", "-1/2", "0", "x", "2/0", "slope", "hilbert"])
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4)
    ),
    max_leaves=12,
)
_POOL = [
    RANK6_INSTANCE,
    PASSING_INSTANCE,
    _weighted(1, "hilbert"),
    {"degrees": [-1, 0, 1], "support": [[1, 1, 1], [1, 2, 3]], "delta": "1/2"},
]


def _mutate(doc, rng, value):
    """A copy of `doc` with the value at one random path replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = rng.choice(keys)
        if isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.9:
            node = node[key]
            continue
        node[key] = value
        return doc


_FUZZ_COMMANDS = [
    ["check"], ["check", "--strict"], ["check", "--trace"], ["reduce"], ["p1", "check"],
]


@settings(max_examples=60, deadline=None)
@given(
    _JSON
    | st.builds(
        _mutate,
        st.sampled_from(_POOL),
        st.randoms(use_true_random=False),
        st.integers(-2, 6) | st.sampled_from(["1", "3/2"]) | _JSON,
    )
)
def test_fuzzed_input_exits_0_1_or_2_and_never_raises(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in _FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path)])
        assert code in (0, 1, 2), (command, doc)
        assert (code == 2) == err.getvalue().startswith("error: "), (command, doc)
