"""Record the expected outputs of every pool input into ``oracle.json``.

Run from the repository root, once, on the commit whose outputs define
correctness:

    python3 perfbench/record_oracle.py

Only values that any correct implementation must reproduce are stored:
decide minima, classifications and violation flags; p1 semistability; reduce
subsets; weighted values; and the values printed by ``destab comb``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import destab.instances  # noqa: E402
import destab.p1  # noqa: E402
import destab.stability  # noqa: E402
import workloads as wl  # noqa: E402


def pool_digest() -> str:
    """Hash of every pool input; the oracle is stale when this changes."""
    blob = json.dumps(
        [
            [wl.decide_instance(cell, j) for cell in wl.DECIDE_CELLS for j in range(wl.DECIDE_POOL)],
            [wl.cli_instance(j) for j in range(wl.CLI_POOL)],
            wl.p1_universe(),
            wl.COMB_ARGS,
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _verdict(instance: dict) -> list:
    fs, ps, sp, _ = destab.instances.parse_instance(instance)
    verdict = destab.stability.decide_destabilizing(fs, ps, sp, "semi")
    return [
        destab.instances.value_json(verdict.min_value),
        verdict.classification,
        verdict.violated,
    ]


def _cli_json(workdir: Path, argv: list[str], doc: dict) -> tuple[int, dict]:
    path = workdir / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = wl.run_cli([str(path) if a == "{}" else a for a in argv])
    return code, json.loads(out) if out else {}


def record() -> dict:
    oracle: dict = {"pool_digest": pool_digest()}
    oracle["decide_grid"] = {
        wl.cell_key(cell): [_verdict(wl.decide_instance(cell, j)) for j in range(wl.DECIDE_POOL)]
        for cell in wl.DECIDE_CELLS
    }
    universe = wl.p1_universe()
    oracle["p1_sweep"] = {
        delta: "".join(
            "1" if destab.p1.is_semistable_p1(
                destab.p1.P1Tensor.make(degrees, support, Fraction(delta)), "semi"
            ).semistable else "0"
            for degrees, support in universe
        )
        for delta in wl.P1_DELTAS
    }
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT))
    try:
        pool = []
        for j in range(wl.CLI_POOL):
            instance, weights = wl.cli_instance(j)
            _, weighted = _cli_json(workdir, ["check", "{}"], dict(instance, weights=weights))
            code, reduced = _cli_json(workdir, ["reduce", "{}"], instance)
            pool.append(
                {
                    "verdict": _verdict(instance),
                    "value": weighted["value"],
                    "value_violated": weighted["violated"],
                    "subset": reduced["subset"] if code == 1 else None,
                }
            )
        _, rank6 = _cli_json(workdir, ["reduce", "{}"], wl.RANK6_INSTANCE)
        oracle["cli"] = {"pool": pool, "rank6": rank6["subset"]}
    finally:
        shutil.rmtree(workdir)
    oracle["comb"] = {
        name: {
            wl.comb_key(args): wl.run_cli(["comb", name, *map(str, args)])[1].strip()
            for args in space
        }
        for name, space in wl.COMB_ARGS.items()
    }
    return oracle


if __name__ == "__main__":
    oracle = record()
    with open(wl.ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(oracle, handle, separators=(",", ":"))
        handle.write("\n")
