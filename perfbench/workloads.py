"""Seeded inputs, operations and output checks for the benchmark workloads.

Every workload draws its inputs from a fixed, finite pool whose expected
outputs were recorded once in ``oracle.json`` (see ``record_oracle.py``).  The
run seed picks which pool members run and in which order; the program under
test only ever sees the generated inputs.

Ops are laid out in rounds.  Each round holds one op of every cost class in a
seeded order, so any prefix of the op list has the same class mix and a slow
patch of the host hits every class alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import destab.cli
import destab.instances
import destab.p1
import destab.stability

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

Check = Callable[[Any], Optional[str]]


@dataclass
class Op:
    """One timed call: ``run`` does the work, ``check`` returns None or a failure reason.

    ``input`` is the JSON-able input the op was generated from; it feeds the digest.
    """

    kind: str
    input: Any
    run: Callable[[], Any]
    check: Check


@dataclass
class Workload:
    """``ops`` run in order, cycling; every ``block`` consecutive ops have the same cost mix."""

    ops: list[Op]
    warmup: list[Op]
    block: int
    files: dict[Path, str] = field(default_factory=dict)  # input files the ops read

    def write_files(self) -> None:
        for path, text in self.files.items():
            path.write_text(text, encoding="utf-8")

    @property
    def digest(self) -> str:
        """Hash of every op's kind and input in run order: equal digests ran equal ops."""
        blob = json.dumps([[op.kind, op.input] for op in self.ops], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @property
    def mix(self) -> dict[str, int]:
        return dict(sorted(Counter(op.kind for op in self.ops).items()))


def load_oracle() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Instance pools (deterministic per pool index, independent of the run seed)


def _level_sets(arity: int, t: int) -> dict[int, list[tuple[int, ...]]]:
    """Ordered tuples grouped by entry sum; each group is an antichain."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    for tup in combinations_with_replacement(range(1, t + 1), arity):
        groups.setdefault(sum(tup), []).append(tup)
    return groups


def random_instance(rng: random.Random, s: int, arity: int, npiv: int, mode: str) -> dict:
    """Instance JSON with s steps and npiv pivots drawn from one level-set antichain."""
    t = s + 1
    r = rng.randint(s + 1, s + 4)
    ranks = sorted(rng.sample(range(1, r), s))
    groups = [g for g in _level_sets(arity, t).values() if len(g) >= npiv]
    pivots = sorted(rng.sample(rng.choice(groups), npiv))
    slope = Fraction(rng.randint(-2, 2))

    def sheaf(rank: int) -> dict:
        degree = int(slope * rank) + rng.randint(-2 * arity, 2 * arity)
        out: dict[str, Any] = {"rank": rank, "degree": degree}
        if mode == "hilbert":
            out["hilbert"] = [str(degree + rank * rng.randint(0, 2)), str(rank)]
        return out

    delta = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return {
        "mode": mode,
        "arity": arity,
        "total": sheaf(r),
        "steps": [sheaf(rk) for rk in ranks],
        "delta": str(delta) if mode == "slope" else [str(rng.randint(-6, 6)), str(delta)],
        "pivots": [list(p) for p in pivots],
    }


def _decide_cells() -> list[tuple[int, int, int, str]]:
    """(s, arity, |P|, mode) cells; |P| in {2, 4, 6} capped by the largest level set.

    At s = 5, |P| is also capped at 4: |P| = 6 there costs about 0.7 s per op,
    five times the next cell, so three such cells would set both the
    throughput and p90 alone.  At s = 2 the two-pivot cells cost the same
    (about 1 ms) whatever the arity, so only arity 3 keeps one.  That also
    puts the median op inside the band of 15-20 ms cells instead of at the
    edge of the gap below it, where the median would jump between runs.
    """
    cells = []
    for s in (2, 3, 4, 5):
        for arity in (2, 3, 4):
            cap = max(len(g) for g in _level_sets(arity, s + 1).values())
            if s == 5:
                cap = min(cap, 4)
            for npiv in sorted({min(n, cap) for n in (2, 4, 6)}):
                if s == 2 and npiv == 2 and arity != 3:
                    continue
                modes = ("slope", "hilbert") if arity == 3 else ("slope",)
                cells.extend((s, arity, npiv, mode) for mode in modes)
    return cells


DECIDE_CELLS = _decide_cells()
DECIDE_POOL = 64  # instances per cell


def cell_key(cell: tuple[int, int, int, str]) -> str:
    s, arity, npiv, mode = cell
    return f"s{s}-a{arity}-p{npiv}-{mode[0]}"


def decide_instance(cell: tuple[int, int, int, str], j: int) -> dict:
    return random_instance(random.Random(f"decide_grid/{cell_key(cell)}/{j}"), *cell)


P1_DELTAS = ("1/2", "1", "2")
P1_BOUND = 2


def p1_universe() -> list[tuple[tuple[int, int, int], tuple[tuple[int, int, int], ...]]]:
    """Every (degrees, support) with |smallest degree| <= P1_BOUND, in a fixed order."""
    out = []
    for d1 in range(-P1_BOUND, 1):
        for d2 in range(d1, -d1 + 1):
            d3 = -d1 - d2
            if d2 > d3:
                continue
            degrees = (d1, d2, d3)
            admissible = [
                m
                for m in combinations_with_replacement((1, 2, 3), 3)
                if sum(degrees[i - 1] for i in m) <= 0
            ]
            for n in range(1, len(admissible) + 1):
                out.extend((degrees, support) for support in combinations(admissible, n))
    return out


CLI_POOL = 240


def cli_instance(j: int) -> tuple[dict, list[str]]:
    """Small instance (s <= 3) for the CLI workload, with positive weights.

    Every third pool member is in hilbert mode.
    """
    rng = random.Random(f"cli_session/{j}")
    s = rng.randint(1, 3)
    arity = rng.randint(2, 4)
    cap = max(len(g) for g in _level_sets(arity, s + 1).values())
    mode = "hilbert" if j % 3 == 2 else "slope"
    instance = random_instance(rng, s, arity, rng.randint(1, min(4, cap)), mode)
    weights = [str(Fraction(rng.randint(1, 9), rng.randint(1, 5))) for _ in range(s)]
    return instance, weights


RANK6_INSTANCE = {
    "mode": "slope",
    "arity": 4,
    "total": {"rank": 6, "degree": 36},
    "steps": [
        {"rank": 1, "degree": 6},
        {"rank": 3, "degree": 18},
        {"rank": 5, "degree": 30},
    ],
    "delta": "1",
    "pivots": [[1, 1, 4, 4], [2, 2, 2, 4], [3, 3, 3, 3]],
}

COMB_ARGS: dict[str, list[tuple[int, ...]]] = {
    "partitions": [(k, n) for k in range(1, 7) for n in range(0, 25)],
    "f": [(a, t, x) for a in range(1, 5) for t in range(1, 6) for x in range(a, a * t + 1)],
    "maxp": [(a, t) for a in range(1, 5) for t in range(1, 7)],
    "qbinom": [(n, k) for n in range(0, 11) for k in range(0, n + 1)],
    "verify": [(a, t) for a in range(2, 5) for t in range(2, 6)],
}


def comb_key(args: tuple[int, ...]) -> str:
    return " ".join(map(str, args))


# ---------------------------------------------------------------------------
# Output checks: only values any correct implementation must reproduce


def check_verdict_fields(got: dict, expected: list) -> Optional[str]:
    """Compare min_value, classification and violated with a recorded triple."""
    for key, value in zip(("min_value", "classification", "violated"), expected):
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, expected {value!r}"
    return None


def check_witness(instance: dict, witness: list, min_value: Any) -> Optional[str]:
    """The witness lies on the simplex and the objective there equals the minimum."""
    fs, ps, sp, _ = destab.instances.parse_instance(instance)
    point = tuple(Fraction(w) for w in witness)
    if len(point) != fs.s or any(w < 0 for w in point) or sum(point) != 1:
        return f"witness {witness} is not on the simplex"
    value = destab.instances.value_json(destab.stability.objective(fs, ps, point, sp))
    if value != min_value:
        return f"objective at witness is {value!r}, min_value is {min_value!r}"
    return None


def _decide_check(instance: dict, expected: list) -> Check:
    def check(verdict: Any) -> Optional[str]:
        got = {
            "min_value": destab.instances.value_json(verdict.min_value),
            "classification": verdict.classification,
            "violated": verdict.violated,
        }
        return check_verdict_fields(got, expected) or check_witness(
            instance, [str(w) for w in verdict.witness], got["min_value"]
        )

    return check


def _p1_check(expected: bool) -> Check:
    def check(verdict: Any) -> Optional[str]:
        if verdict.semistable is not expected:
            return f"semistable: got {verdict.semistable!r}, expected {expected!r}"
        return None

    return check


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``destab`` invocation; returns the exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = destab.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _cli_check(
    want_code: int,
    fields: Callable[[Any], Optional[str]] = lambda _: None,
    parse: Callable[[str], Any] = json.loads,
) -> Check:
    """Exit code first; then, unless an error exit is expected, the parsed output."""

    def check(result: tuple[int, str]) -> Optional[str]:
        code, out = result
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if want_code == 2:
            return None
        try:
            report = parse(out)
        except ValueError as exc:
            return f"unparsable output: {exc}"
        return fields(report)

    return check


def _report_check(instance: dict, expected: list, trace: bool) -> Check:
    def fields(report: dict) -> Optional[str]:
        verdict = report.get("verdict", {})
        if report.get("violated") != expected[2]:
            return f"violated: got {report.get('violated')!r}"
        if trace and not report.get("regions"):
            return "--trace report has no regions"
        return check_verdict_fields(verdict, expected) or check_witness(
            instance, verdict["witness"], verdict["min_value"]
        )

    return _cli_check(1 if expected[2] else 0, fields)


def _field_check(want_code: int, **want: Any) -> Check:
    def fields(report: dict) -> Optional[str]:
        for key, value in want.items():
            if report.get(key) != value:
                return f"{key}: got {report.get(key)!r}, expected {value!r}"
        return None

    return _cli_check(want_code, fields)


def _comb_check(expected: str) -> Check:
    def fields(out: str) -> Optional[str]:
        if out.strip() != expected:
            return f"printed {out.strip()!r}, expected {expected!r}"
        return None

    return _cli_check(1 if "fail" in expected else 0, fields, parse=str)


# ---------------------------------------------------------------------------
# Op lists


def _deal(rng: random.Random, population: Sequence[int], n: int) -> list[int]:
    """``n`` members of ``population`` in seeded passes, each pass a full shuffle of it.

    Every member is dealt as often as any other, give or take one, so the
    seed changes the order of a kind's instances much more than their mix.
    """
    dealt: list[int] = []
    while len(dealt) < n:
        batch = list(population)
        rng.shuffle(batch)
        dealt += batch
    return dealt[:n]


def _rounds(rng: random.Random, per_kind: dict[str, list[Op]], rounds: int) -> list[Op]:
    """Round r holds the r-th op of every kind, in a seeded order."""
    ops: list[Op] = []
    for r in range(rounds):
        batch = [ops_of_kind[r] for ops_of_kind in per_kind.values()]
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


DECIDE_ROUNDS = 32


def decide_grid(seed: int, oracle: dict) -> Workload:
    """Library decide_destabilizing on pre-parsed instances, one op per cell per round."""
    rng = random.Random(f"decide_grid:{seed}")
    per_kind: dict[str, list[Op]] = {}
    for cell in DECIDE_CELLS:
        key = cell_key(cell)
        per_kind[key] = []
        for j in rng.sample(range(DECIDE_POOL), DECIDE_ROUNDS):
            instance = decide_instance(cell, j)
            fs, ps, sp, _ = destab.instances.parse_instance(instance)
            per_kind[key].append(
                Op(
                    kind=key,
                    input=[j, instance],
                    run=lambda fs=fs, ps=ps, sp=sp: destab.stability.decide_destabilizing(
                        fs, ps, sp, "semi"
                    ),
                    check=_decide_check(instance, oracle["decide_grid"][key][j]),
                )
            )
    ops = _rounds(rng, per_kind, DECIDE_ROUNDS)
    return Workload(ops, warmup=ops[: len(DECIDE_CELLS)], block=len(DECIDE_CELLS))


P1_OPS = 1200
P1_BLOCK = 48  # a random sample of the universe; 48 ops make one block


def p1_sweep(seed: int, oracle: dict) -> Workload:
    """is_semistable_p1 on a seeded sample of the bounded tensor universe."""
    rng = random.Random(f"p1_sweep:{seed}")
    universe = p1_universe()
    pairs = [(i, d) for d in P1_DELTAS for i in range(len(universe))]
    ops = []
    for i, d in rng.sample(pairs, P1_OPS):
        degrees, support = universe[i]
        ops.append(
            Op(
                kind=f"support{len(support):02d}",
                input=[degrees, support, d],
                run=lambda degrees=degrees, support=support, delta=Fraction(d): (
                    destab.p1.is_semistable_p1(
                        destab.p1.P1Tensor.make(degrees, support, delta), "semi"
                    )
                ),
                check=_p1_check(oracle["p1_sweep"][d][i] == "1"),
            )
        )
    return Workload(ops, warmup=ops[:P1_BLOCK], block=P1_BLOCK)


def _malform(rng: random.Random, instance: dict) -> tuple[str, str]:
    """(subcommand, file text) that every reading of the input format rejects."""
    bad = json.loads(json.dumps(instance))
    how = rng.randrange(8)
    if how == 0:
        return "check", json.dumps(bad)[:-7]  # truncated JSON
    if how == 1:
        del bad["total"]
    elif how == 2:
        bad["pivots"] = []
    elif how == 3:
        bad["pivots"] = [[0] * bad["arity"]]  # level 0 does not exist
    elif how == 4:
        bad["weights"][0] = "0"
    elif how == 5:
        bad["steps"][-1]["rank"] = bad["total"]["rank"]
    elif how == 6:
        bad["mode"] = "bogus"
    else:  # degrees summing to 1
        return "p1", json.dumps({"degrees": [-1, 0, 2], "support": [[1, 1, 1]]})
    return rng.choice(["check", "reduce"]), json.dumps(bad)


CLI_ROUNDS = 80

_CHECK_KINDS = (
    # kind, pool filter, with weights, extra flags
    ("check", "slope", False, []),
    ("check_weights", "slope", True, []),
    ("check_hilbert", "hilbert", False, []),
    ("check_hilbert_weights", "hilbert", True, []),
    ("check_strict", "nonzero", False, ["--strict"]),
    ("check_trace", "any", False, ["--trace"]),
)


def cli_session(seed: int, oracle: dict, workdir: Path) -> Workload:
    """In-process CLI calls on files in ``workdir``, one op of every kind per round.

    The files are only listed here; ``Workload.write_files`` writes them.
    """
    rng = random.Random(f"cli_session:{seed}")
    pool = oracle["cli"]["pool"]
    # --strict only where the minimum is nonzero, so no stable-mode rule can flip it.
    nonzero = ("strictly-destabilized", "stable-ok")
    choices = {
        "any": range(CLI_POOL),
        "slope": [j for j in range(CLI_POOL) if j % 3 != 2],
        "hilbert": [j for j in range(CLI_POOL) if j % 3 == 2],
        "nonzero": [j for j in range(CLI_POOL) if j % 3 != 2 and pool[j]["verdict"][1] in nonzero],
        "violating": [j for j in range(CLI_POOL) if pool[j]["subset"] is not None],
    }
    universe = p1_universe()
    per_kind: dict[str, list[Op]] = {}
    files: dict[Path, str] = {}

    def add(kind: str, argv: list[str], check: Check, text: Optional[str] = None) -> None:
        """Queue ``destab argv``; ``text`` goes to a file that replaces "{}" in argv."""
        if text is not None:
            path = workdir / f"in{len(files):05d}.json"
            files[path] = text
            argv = [str(path) if a == "{}" else a for a in argv]
        op_input = [argv if text is None else [a for a in argv if not a.startswith("/")], text]
        per_kind.setdefault(kind, []).append(
            Op(kind, op_input, lambda argv=argv: run_cli(argv), check)
        )

    dealt = {kind: _deal(rng, choices[subset], CLI_ROUNDS) for kind, subset, _, _ in _CHECK_KINDS}
    dealt["reduce"] = _deal(rng, choices["violating"], CLI_ROUNDS)
    for r in range(CLI_ROUNDS):
        for kind, subset, with_weights, flags in _CHECK_KINDS:
            j = dealt[kind][r]
            instance, weights = cli_instance(j)
            if with_weights:
                want = pool[j]["value_violated"]
                check = _field_check(int(want), value=pool[j]["value"], violated=want)
                instance = dict(instance, weights=weights)
            else:
                check = _report_check(instance, pool[j]["verdict"], trace="--trace" in flags)
            add(kind, ["check", "{}", *flags], check, json.dumps(instance))

        j = dealt["reduce"][r]
        subset = pool[j]["subset"]
        add("reduce", ["reduce", "{}"], _field_check(1, subset=subset), json.dumps(cli_instance(j)[0]))
        subset = oracle["cli"]["rank6"]
        add("reduce_rank6", ["reduce", "{}"], _field_check(1, subset=subset), json.dumps(RANK6_INSTANCE))

        for name, space in COMB_ARGS.items():
            args = rng.choice(space)
            expected = oracle["comb"][name][comb_key(args)]
            add(f"comb_{name}", ["comb", name, *map(str, args)], _comb_check(expected))

        for kind in ("p1_check", "p1_check_delta"):
            i = rng.randrange(len(universe))
            delta = rng.choice(P1_DELTAS)
            want = oracle["p1_sweep"][delta][i] == "1"
            degrees, support = universe[i]
            doc = {"degrees": list(degrees), "support": [list(m) for m in support]}
            if kind == "p1_check":
                argv = ["p1", "check", "{}"]
                doc["delta"] = delta
            else:
                argv = ["p1", "check", "{}", "--delta", delta]
            add(kind, argv, _field_check(0 if want else 1, semistable=want), json.dumps(doc))

        for kind in ("malformed_1", "malformed_2"):
            instance, weights = cli_instance(rng.randrange(CLI_POOL))
            command, text = _malform(rng, dict(instance, weights=weights))
            argv = ["p1", "check", "{}"] if command == "p1" else [command, "{}"]
            add(kind, argv, _cli_check(2), text)

    ops = _rounds(rng, per_kind, CLI_ROUNDS)
    # Warm-up: every comb op (fills the combinatorics caches) plus one full round.
    warmup = [op for op in ops if op.kind.startswith("comb_")] + ops[: len(per_kind)]
    return Workload(ops, warmup=warmup, block=len(per_kind), files=files)
