"""Command-line interface: exact stability checks over JSON instance files.

Exit codes: 0 when the checked condition holds, 1 when it is violated,
2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Any, Optional

from . import combinatorics as comb
from . import p1
from .instances import (
    instance_json,
    parse_frac,
    parse_instance,
    parse_list,
    value_json,
    verdict_json,
)
from .model import InstanceError, clip, guard_limit
from .stability import (
    check_k_semistable,
    decide_destabilizing,
    k_of_level,
    mu_via_pivots,
    objective,
    r_value,
    reduce_destabilizer,
    region_minima,
    violates,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    # json.load raises ValueError on bad JSON and on an integer past Python's digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise InstanceError(f"cannot read instance {path!r}: {exc}") from exc


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_check(args: argparse.Namespace) -> int:
    fs, ps, sp, weights = parse_instance(_read_json(args.instance))
    strictness = "stable" if args.strict else "semi"
    report: dict[str, Any] = {"instance": instance_json(fs, ps, sp, weights)}
    report["k_values"] = [k_of_level(ps, lvl) for lvl in range(1, fs.t)]
    if weights is not None:
        value = objective(fs, ps, weights, sp)
        rmax, pivot = r_value(fs, ps, weights)
        report["value"] = value_json(value)
        report["mu"] = str(mu_via_pivots(fs, ps, weights))
        report["r_max"] = str(rmax)
        report["attaining_pivot"] = list(pivot)
        violated = violates(value, args.strict)
        report["step_conditions"] = check_k_semistable(fs, ps, sp, strict=args.strict)
    else:
        verdict = decide_destabilizing(fs, ps, sp, strictness)
        report["step_conditions"] = list(verdict.step_conditions)
        report["verdict"] = verdict_json(verdict)
        violated = verdict.violated
    report["violated"] = violated
    if args.trace:
        report["regions"] = [
            {
                "pivot": list(p),
                "vertices": [
                    {"point": [str(c) for c in v], "value": value_json(val)}
                    for v, val in vertices
                ],
            }
            for p, vertices in region_minima(fs, ps, sp)
        ]
    _emit(report)
    return EXIT_VIOLATED if violated else EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    fs, ps, sp, _ = parse_instance(_read_json(args.instance))
    strictness = "stable" if args.strict else "semi"
    subset, witness, trace = reduce_destabilizer(fs, ps, sp, strictness)
    _emit(
        {
            "instance": instance_json(fs, ps, sp, None),
            "subset": list(subset),
            "witness": [str(w) for w in witness],
            "trace": [
                {"subset": list(attempt), "violated": violated}
                for attempt, violated in trace
            ],
        }
    )
    return EXIT_VIOLATED


def _guard_comb(args: argparse.Namespace) -> None:
    """Refuse a comb command above `guard_limit` steps, naming its arguments.  The
    steps are table cells for partitions, coefficient products for qbinom, and
    for the rest the a * t levels or, below the limit, the ordered a-tuples over
    1..t, which verify sweeps about five times.  Arguments that the functions
    reject take no steps."""
    cmd, limit = args.comb_cmd, guard_limit(5_000_000)
    if cmd in ("partitions", "qbinom"):
        names, k, n = "k, n", args.k, args.n
        need = min(k, n - k) * n if 0 <= k <= n else 0
        need = need * need // 2 if cmd == "qbinom" else need
    else:
        names, a, t = "a, t", args.a, args.t
        need = 0 if a < 1 or t < 1 else a * t if a * t > limit else math.comb(a + t - 1, a)
        need *= 5 if cmd == "verify" else 1
    if need > limit:
        raise InstanceError(f"{names}: comb {cmd} would take more than {limit} steps")


def cmd_comb(args: argparse.Namespace) -> int:
    _guard_comb(args)
    if args.comb_cmd == "partitions":
        print(comb.partition_count(args.k, args.n))
    elif args.comb_cmd == "f":
        print(comb.f_atx(args.a, args.t, args.x))
    elif args.comb_cmd == "maxp":
        print(comb.maxp(args.a, args.t))
    elif args.comb_cmd == "qbinom":
        print(json.dumps(list(comb.gaussian_binomial(args.n, args.k))))
    else:  # verify
        a, t = args.a, args.t
        ok_q, lhs, rhs = comb.verify_q_identity(a, t)
        print(f"q-identity ({a},{t}): {'pass' if ok_q else 'fail'} lhs={list(lhs)} rhs={list(rhs)}")
        ok_pascal = all(
            comb.verify_pascal(a, t, x) for x in range(a, a * t + 1)
        ) if a >= 2 and t >= 2 else True
        print(f"pascal sweep ({a},{t}): {'pass' if ok_pascal else 'fail'}")
        ok_sum = comb.sum_check(a, t)
        print(f"sum check ({a},{t}): {'pass' if ok_sum else 'fail'}")
        return EXIT_OK if ok_q and ok_pascal and ok_sum else EXIT_VIOLATED
    return EXIT_OK


def _parse_tensor(obj: Any, delta_override: Optional[Fraction]) -> p1.P1Tensor:
    if not isinstance(obj, dict):
        raise InstanceError(f"tensor: expected an object, got {clip(repr(obj))}")
    degrees = parse_list(obj.get("degrees"), "degrees")
    support = parse_list(obj.get("support"), "support", parse_list)
    if delta_override is None:
        delta_override = parse_frac(obj.get("delta", "1"), "delta")
    return p1.P1Tensor.make(degrees, support, delta_override)


def cmd_p1(args: argparse.Namespace) -> int:
    delta = parse_frac(args.delta, "--delta") if args.delta is not None else None
    if delta is not None and delta <= 0:
        raise InstanceError(f"--delta: expected a positive rational, got {clip(str(delta))}")
    if args.p1_cmd == "check":
        tensor = _parse_tensor(_read_json(args.tensor), delta)
        verdict = p1.is_semistable_p1(tensor, "stable" if args.strict else "semi")
        _emit(
            {
                "degrees": list(tensor.degrees),
                "support": [list(m) for m in sorted(tensor.support)],
                "delta": str(tensor.delta),
                "semistable": verdict.semistable,
                "flags": [
                    {"flag": [i, j], **verdict_json(v)} for i, j, v in verdict.flags
                ],
                "step_conditions": [
                    {"flag": [i, j], "ok": list(v.step_conditions)} for i, j, v in verdict.flags
                ],
            }
        )
        return EXIT_OK if verdict.semistable else EXIT_VIOLATED
    # classify
    if args.bound < 0:
        raise InstanceError(f"--bound: expected a nonnegative integer, got {clip(str(args.bound))}")
    count, limit = p1.tensor_count(args.bound), guard_limit(100_000)
    if count > limit:
        raise InstanceError(f"--bound: classify would decide {count} tensors > {limit}")
    rows = p1.classify(delta if delta is not None else Fraction(1), args.bound)
    _emit(
        {
            "delta": str(delta if delta is not None else Fraction(1)),
            "bound": args.bound,
            "rows": [
                {
                    "degrees": list(row.degrees),
                    "support": [list(m) for m in row.support],
                    "semistable": row.semistable,
                    "k": list(row.k_singles),
                }
                for row in rows
            ],
        }
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree, built on the first call and then reused: argparse
    keeps no per-call state on it, so every `main` call in a process shares it.
    Callers must not modify the returned parser."""
    parser = argparse.ArgumentParser(
        prog="destab",
        description="Exact (semi)stability checks for discretized tensor-sheaf data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate or decide a single instance")
    check.add_argument("instance", help="instance file path, or - for stdin")
    group = check.add_mutually_exclusive_group()
    group.add_argument("--strict", action="store_true", help="test stability")
    group.add_argument("--semi", action="store_true", help="test semistability (default)")
    check.add_argument("--trace", action="store_true", help="emit region minimization details")
    check.set_defaults(func=cmd_check)

    reduce_p = sub.add_parser("reduce", help="shrink a violating instance")
    reduce_p.add_argument("instance")
    reduce_group = reduce_p.add_mutually_exclusive_group()
    reduce_group.add_argument("--strict", action="store_true")
    reduce_group.add_argument("--semi", action="store_true")
    reduce_p.set_defaults(func=cmd_reduce)

    comb_p = sub.add_parser("comb", help="combinatorial values and identity checks")
    comb_sub = comb_p.add_subparsers(dest="comb_cmd", required=True)
    part = comb_sub.add_parser("partitions")
    part.add_argument("k", type=int)
    part.add_argument("n", type=int)
    fcmd = comb_sub.add_parser("f")
    fcmd.add_argument("a", type=int)
    fcmd.add_argument("t", type=int)
    fcmd.add_argument("x", type=int)
    maxp_cmd = comb_sub.add_parser("maxp")
    maxp_cmd.add_argument("a", type=int)
    maxp_cmd.add_argument("t", type=int)
    qbinom = comb_sub.add_parser("qbinom")
    qbinom.add_argument("n", type=int)
    qbinom.add_argument("k", type=int)
    verify = comb_sub.add_parser("verify")
    verify.add_argument("a", type=int)
    verify.add_argument("t", type=int)
    comb_p.set_defaults(func=cmd_comb)

    p1_p = sub.add_parser("p1", help="rank-3 case study on the projective line")
    p1_sub = p1_p.add_subparsers(dest="p1_cmd", required=True)
    p1_check = p1_sub.add_parser("check")
    p1_check.add_argument("tensor", help="tensor file path, or - for stdin")
    p1_check.add_argument("--delta", default=None)
    p1_check.add_argument("--strict", action="store_true")
    p1_classify = p1_sub.add_parser("classify")
    p1_classify.add_argument("--bound", type=int, default=0)
    p1_classify.add_argument("--delta", default=None)
    p1_p.set_defaults(func=cmd_p1)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (InstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_ERROR
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
