"""Median and quartiles of every metric across the raw runs that run.py wrote.

    python3 perfbench/summarize.py [RUNS_DIR]

RUNS_DIR defaults to .perfbench/runs.  Runs are grouped by workload, trace
mode, ``--seconds`` and the hash of src/ they measured, so runs of different
code or of different lengths are never pooled into one median.  ``spread`` is (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``.  The summary states no performance
claim; it ends with ``"claim": null``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / ".perfbench" / "runs"


def summarize(runs_dir: Path) -> dict:
    groups: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(runs_dir.glob("*.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        key = f"{run['workload']} trace={run['trace']} seconds={run['seconds']:g} source={run['source']}"
        groups[key].append(run)
    out: dict = {}
    for group, runs in sorted(groups.items()):
        table = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            table[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "n": len(values),
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
        out[group] = {
            "runs": len(runs),
            "seeds": sorted({r["seed"] for r in runs}),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": table,
        }
    return {"groups": out, "claim": None}


def main() -> int:
    runs_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_DIR
    summary = summarize(runs_dir)
    for group, data in summary["groups"].items():
        print(f"{group}: {data['runs']} runs, failed {data['failed']} of {data['attempted']} ops")
        for metric, row in data["metrics"].items():
            print(
                f"  {metric:48s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                f"q3 {row['q3']:<12.6g} spread {row['spread']:.3f} {row['unit']}"
            )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
