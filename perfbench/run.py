"""destab benchmark: one closed-loop client, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload decide_grid --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory): decide_grid, p1_sweep, cli_session.
With ``--trace 0`` it reports the end-to-end metrics, with op times scaled to a
nominal host speed measured as it goes; with ``--trace 1`` it runs the same ops
untraced and then traced and reports the per-layer metrics.  The last line of standard output is one JSON object; each run's raw result is
also written under ``.perfbench/runs/`` for ``summarize.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Host-speed calibration: after every SEGMENT_NS of op time, at a block
# boundary, the calibration kernel runs for CALIBRATION_SHARE of that time.
SEGMENT_NS = 250_000_000
CALIBRATION_SHARE = 0.1
NOMINAL_CALIBRATION_NS = 3_000_000
SETUP_REPS = 8  # set-ups timed before the timed loop, and as many after it

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "1"),
)


IMPORT_TIMER = "import time; t = time.perf_counter(); import destab.cli; print(time.perf_counter() - t)"


def fresh_import() -> float:
    """Seconds a new interpreter takes to import destab.cli, which pulls in every module.

    Interpreter start-up itself is excluded: destab cannot change it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=env,
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    return float(done.stdout)


def build(name: str, seed: int, oracle: dict, workdir: Path):
    import workloads

    if name == "cli_session":
        return workloads.cli_session(seed, oracle, workdir)
    return getattr(workloads, name)(seed, oracle)


def setup_samples(name: str, seed: int, oracle: dict, workdir: Path):
    """The workload, and SETUP_REPS timings of a fresh-interpreter import plus input generation."""
    samples = []
    for _ in range(SETUP_REPS):
        workload = None  # every set-up starts from the same live objects, so its GC pauses do too
        import_s = fresh_import()
        start = time.perf_counter()
        workload = build(name, seed, oracle, workdir)
        samples.append(import_s + time.perf_counter() - start)
    return workload, samples


def check(op, result: Any) -> Optional[str]:
    """Why ``result`` is wrong for ``op``, or None when it passes."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        return op.check(result)
    except Exception as exc:  # a malformed result is a wrong result
        return f"check raised {type(exc).__name__}: {exc}"


def calibration_kernel() -> Fraction:
    """Fixed stdlib-only work in the style of destab's hot paths.

    Gaussian elimination over Fractions (as in vertex enumeration), sorting
    tuples and building small records.  destab cannot change how long it
    takes, so its time measures the host's speed.
    """
    total = Fraction(0)
    for shift in range(3):
        rows = [[Fraction((i * 7 + j * 3 + shift) % 11 - 5, (i + j) % 4 + 1) for j in range(6)] for i in range(5)]
        for c in range(5):
            pivot = next((r for r in range(c, 5) if rows[r][c] != 0), None)
            if pivot is None:
                continue
            rows[c], rows[pivot] = rows[pivot], rows[c]
            inverse = 1 / rows[c][c]
            rows[c] = [x * inverse for x in rows[c]]
            for r in range(5):
                if r != c and rows[r][c] != 0:
                    factor = rows[r][c]
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
        total += sum(row[-1] for row in rows)
    keys = sorted(((i * 37) % 101, (i * 11) % 7, str(i)) for i in range(150))
    records = [{"rank": k[0], "degree": k[1], "name": k[2]} for k in keys]
    return total + len({record["rank"] for record in records})


Calibration = list[tuple[int, list[int]]]  # (ops in a segment, kernel times in ns after it)


def timed_loop(
    ops, block: int, seconds: float, first: int = 0, tracer=None, calibration: Optional[Calibration] = None
):
    """Run ops in order from index ``first``, cycling, in whole blocks of ``block`` ops.

    It stops at the first block boundary after the ops have run ``seconds``,
    so every op kind ran equally often; ``seconds=0`` runs one block.  Only
    time inside ops counts towards ``seconds``.  Untraced, each result is
    checked as soon as its op returns and then dropped, so memory does not
    grow with the number of ops.  Traced, results are kept and checked by the
    caller once the wrappers are gone.  Returns per-op wall times (ns), failure
    reasons and kept results.  An op that raises yields its exception as the
    result.  With ``calibration``, each segment of ops (SEGMENT_NS of op time,
    and the last one) is followed by calibration kernel runs, outside the
    timing, and one entry is appended for it.
    """
    clock = time.perf_counter_ns
    latencies: list[int] = []
    failures: list[str] = []
    results: list[Any] = []
    budget = int(seconds * 1e9)
    busy = segment_ns = segment_start = 0
    i = first
    while True:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        start = clock()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed op
            result = exc
        elapsed = clock() - start
        latencies.append(elapsed)
        if tracer is None:
            reason = check(op, result)
            if reason is not None:
                failures.append(f"op {i} ({op.kind}): {reason}")
        else:
            results.append(result)
        i += 1
        busy += elapsed
        segment_ns += elapsed
        if (i - first) % block:
            continue
        done = busy >= budget
        if calibration is not None and (done or segment_ns >= SEGMENT_NS):
            reps: list[int] = []
            while len(reps) < 3 or sum(reps) < CALIBRATION_SHARE * segment_ns:
                start = clock()
                calibration_kernel()
                reps.append(clock() - start)
            calibration.append((i - first - segment_start, reps))
            segment_ns, segment_start = 0, i - first
        if done:
            return latencies, failures, results


def verify(ops, results, first: int = 0) -> list[str]:
    """Failure reasons, one per op from index ``first`` on that raised or whose output is wrong."""
    failures = []
    for i, result in enumerate(results, first):
        op = ops[i % len(ops)]
        reason = check(op, result)
        if reason is not None:
            failures.append(f"op {i} ({op.kind}): {reason}")
    return failures


def traced_loop(ops, block: int, seconds: float, tracer):
    """Run each block untraced and then traced, until the traced blocks have run ``seconds / 2``.

    Pairing every block with itself makes ``traced / untraced - 1`` the
    tracing overhead on the same ops at nearly the same moment, so a change in
    the host's speed during the run cancels out.  Returns the untraced and the
    traced per-op wall times (ns) and the failure reasons of both.
    """
    plain: list[int] = []
    traced: list[int] = []
    failures: list[str] = []
    first = 0
    while sum(traced) < seconds * 1e9 / 2:
        latencies, failed, _ = timed_loop(ops, block, 0, first)
        plain += latencies
        failures += failed
        tracer.install()
        try:
            latencies, _, results = timed_loop(ops, block, 0, first, tracer)
        finally:
            tracer.uninstall()
        traced += latencies
        failures += verify(ops, results, first)
        first += block
    return plain, traced, failures


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def per_op_medians(latencies: list[float], n_ops: int) -> list[float]:
    """Each distinct op's median wall time over its runs, sorted.

    The loop runs op ``i`` at positions i, i + n_ops, ...; taking the median of
    those runs keeps a moment of host jitter inside one run out of the op's time.
    """
    return sorted(statistics.median(latencies[i::n_ops]) for i in range(min(n_ops, len(latencies))))


def end_to_end(latencies: list[float], n_ops: int, setup_s: float, peak_rss_mib: float, failed: int) -> dict:
    ordered = per_op_medians(latencies, n_ops)
    return {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_p90_ms": percentile(ordered, 0.9) / 1e6,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "ok_frac": 1 - failed / len(latencies),
    }


def speed(reps: list[int]) -> float:
    """Host speed relative to nominal, from calibration kernel times (ns): above 1 is faster.

    The mean, not the median: like ``ops_per_s``, it weighs every moment by its length.
    """
    return NOMINAL_CALIBRATION_NS / statistics.mean(reps)


def at_nominal_speed(latencies: list[int], calibration: Calibration) -> list[float]:
    """Each op's wall time scaled by the host speed measured right after its segment."""
    scaled: list[float] = []
    for count, reps in calibration:
        factor = speed(reps)
        scaled += [x * factor for x in latencies[len(scaled) : len(scaled) + count]]
    return scaled


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    oracle = workloads.load_oracle()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        fresh_import()  # untimed: writes the .pyc files
        workload, setup = setup_samples(name, seed, oracle, workdir)
        # Untimed: how fast files are written is the file system's business,
        # and it varied two-fold between runs.
        workload.write_files()
        print(f"workload {name} seed {seed} inputs {workload.digest} ops {len(workload.ops)} block {workload.block}")
        print("mix " + json.dumps(workload.mix, separators=(",", ":")))
        for op in workload.warmup:  # untimed: fills caches
            op.run()
        # The inputs and the oracle live for the whole run: keep the cyclic
        # collector from rescanning them, so its pauses do not grow with them.
        gc.collect()
        gc.freeze()
        ops, block = workload.ops, workload.block
        if not trace:
            calibration: Calibration = []
            latencies, failures, _ = timed_loop(ops, block, seconds, calibration=calibration)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Set-up is timed again after the loop, so that its samples span the
            # run as the loop's do and one slow moment of the host cannot set
            # their median.
            setup += setup_samples(name, seed, oracle, workdir)[1]
            setup_s = statistics.median(setup)
            raw = end_to_end(latencies, len(ops), setup_s, peak_rss_mib, len(failures))
            scaled = at_nominal_speed(latencies, calibration)
            metrics = end_to_end(scaled, len(ops), setup_s, peak_rss_mib, len(failures))
            units = dict(END_TO_END)
            distinct = min(len(ops), len(latencies))
            beyond = distinct - math.ceil(0.9 * distinct)
            print(
                f"timed {len(latencies)} runs of {distinct} distinct ops ({len(latencies) // block} blocks) "
                f"in {sum(latencies) / 1e9:.3f} s; {beyond} op medians beyond p90"
            )
            reps = [rep for _, segment in calibration for rep in segment]
            print(f"host speed {speed(reps):.4f} of nominal over {len(calibration)} calibrations ({len(reps)} kernel runs)")
            print("as measured: " + " ".join(f"{k} {v:.6g}" for k, v in raw.items()))
            print(f"failed_frac {len(failures) / len(latencies):.6g} 1")
            samples = {"latencies_ns": latencies, "setup_s": setup, "calibration": calibration}
            attempted = len(latencies)
            tracer = None
        else:
            import tracing

            tracer = tracing.Tracer()
            plain, traced, failures = traced_loop(ops, block, seconds, tracer)
            metrics = tracer.metrics(len(traced), sum(traced), sum(traced) / sum(plain) - 1)
            units = dict(tracing.PER_LAYER)
            print(f"traced {len(traced)} ops, each also untraced; {len(tracer.spans)} of {tracer.total} spans kept")
            attempted = len(plain) + len(traced)
            samples = {"latencies_ns": plain, "traced_latencies_ns": traced}
        for metric, value in metrics.items():
            print(f"{metric} {value:.6g} {units[metric]}")
        for reason in failures[:10]:
            print(f"FAILED {reason}", file=sys.stderr)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    save(name, seed, seconds, trace, workload, result, samples, tracer)
    return result


def source_digest() -> str:
    """A hash of every file under src/, so that runs of different code are never pooled."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def save(name, seed, seconds, trace, workload, result, samples, tracer) -> None:
    """Write this run's result, its raw samples and the kept spans under .perfbench/runs/."""
    runs = OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "source": source_digest(),
        "inputs": workload.digest,
        "mix": workload.mix,
        "block": workload.block,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {os.cpu_count()} cpus",
        **result,
        **samples,
    }
    (runs / f"{stem}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(runs / f"{stem}.spans.json.gz")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["decide_grid", "p1_sweep", "cli_session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import destab.cli
    except ImportError as exc:
        print(f"error: cannot import destab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(destab.cli.__file__).resolve().parent != SRC / "destab":
        print(f"error: destab was imported from {destab.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
