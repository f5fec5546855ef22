"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import destab  # noqa: E402
import record_oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HELD_OUT_SEED = 987654  # never used while the benchmark was tuned


@pytest.fixture(scope="module")
def oracle():
    return wl.load_oracle()


def build(name, seed, oracle, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(exist_ok=True)
    workload = run.build(name, seed, oracle, workdir)
    workload.write_files()
    return workload


def test_oracle_matches_the_pool_generators(oracle):
    assert oracle["pool_digest"] == record_oracle.pool_digest()


@pytest.mark.parametrize("name", ["decide_grid", "p1_sweep", "cli_session"])
def test_generators_are_deterministic_per_seed(name, oracle, tmp_path):
    first = build(name, 3, oracle, tmp_path)
    again = build(name, 3, oracle, tmp_path)
    other = build(name, 4, oracle, tmp_path)
    assert first.digest == again.digest
    assert first.mix == again.mix
    assert first.digest != other.digest


def test_rounds_interleave_every_cost_class(oracle):
    workload = wl.decide_grid(5, oracle)
    cells = len(wl.DECIDE_CELLS)
    first_round = {op.kind for op in workload.ops[:cells]}
    assert len(first_round) == cells


def test_oracle_flags_corrupted_results(oracle, tmp_path):
    decide = wl.decide_grid(1, oracle).ops[0]
    verdict = decide.run()
    assert decide.check(verdict) is None
    wrong_value = dataclasses.replace(verdict, min_value=verdict.min_value - 1)
    wrong_witness = dataclasses.replace(verdict, witness=(0,) * len(verdict.witness))
    assert decide.check(wrong_value) is not None
    assert decide.check(wrong_witness) is not None

    p1 = wl.p1_sweep(1, oracle).ops[0]
    flipped = dataclasses.replace(p1.run(), semistable=not p1.run().semistable)
    assert p1.check(flipped) is not None

    cli_ops = build("cli_session", 1, oracle, tmp_path).ops
    check = next(op for op in cli_ops if op.kind == "check")
    code, out = check.run()
    assert check.check((code, out)) is None
    report = json.loads(out)
    report["verdict"]["classification"] = "stable-ok" if code else "strictly-destabilized"
    assert check.check((code, json.dumps(report))) is not None
    assert check.check((2, "")) is not None

    ops = [decide, p1, check]
    results = [wrong_value, p1.run(), RuntimeError("boom")]
    failures = run.verify(ops, results)
    assert len(failures) == 2 and "(check)" in failures[1]


def snapshot():
    """Identity of every attribute of every destab module and of its classes."""
    state = {}
    for modname, module in sys.modules.items():
        if modname == "destab" or modname.startswith("destab."):
            for attr, value in vars(module).items():
                state[(modname, attr)] = value
                if isinstance(value, type) and value.__module__ == modname:
                    for cattr, cvalue in vars(value).items():
                        state[(modname, attr, cattr)] = cvalue
    return state


def test_tracer_rebinds_every_alias_and_restores_everything(oracle):
    before = snapshot()
    original = destab.polytope.enumerate_vertices
    op = wl.decide_grid(2, oracle).ops[0]
    tracer = tracing.Tracer()
    for _ in range(2):  # counts accumulate across installs
        tracer.install()
        try:
            assert destab.stability.enumerate_vertices is not original
            assert destab.stability.enumerate_vertices is destab.polytope.enumerate_vertices
            assert destab.decide_destabilizing is destab.stability.decide_destabilizing
            assert op.check(op.run()) is None
        finally:
            tracer.uninstall()
        after = snapshot()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)
    metrics = tracer.metrics(2, 1, 0.0)
    assert metrics["stability.decide_destabilizing.calls"] == 1
    assert metrics["polytope.solve_unique.calls"] > 0
    assert metrics.keys() == dict(tracing.PER_LAYER).keys()


def test_tracer_reports_zero_for_missing_layers(monkeypatch, oracle):
    monkeypatch.setattr(tracing, "LAYERS", ("stability", "no_such_layer"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = wl.decide_grid(2, oracle).ops[0]
        op.run()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1, 1, 0.0)
    assert metrics["polytope.solve_unique.calls"] == 0
    assert metrics["polytope.vertex_yield"] == 0
    assert metrics["stability.decide_destabilizing.calls"] == 1


@pytest.mark.parametrize("name", ["decide_grid", "p1_sweep", "cli_session"])
def test_held_out_seed_runs_clean(name, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    result = run.run(name, HELD_OUT_SEED, 0.5, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1
    assert [p.name.endswith(".json") for p in (tmp_path / "runs").iterdir()] == [True]


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    before = snapshot()
    result = run.run("cli_session", HELD_OUT_SEED, 1.0, trace=True)
    assert all(snapshot()[key] is value for key, value in before.items())
    assert result["correct"]
    assert list(result["metrics"]) == [m for m, _ in tracing.PER_LAYER]
    assert result["metrics"]["cli.build_parser.self_ms_per_op"]["value"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _ in tracing.PER_LAYER]
    units = dict(run.END_TO_END) | dict(tracing.PER_LAYER)
    assert all(units[m["name"]] == m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == ["decide_grid", "p1_sweep", "cli_session"]


def test_times_are_scaled_by_the_speed_measured_after_their_segment():
    nominal = run.NOMINAL_CALIBRATION_NS
    calibration = [(2, [nominal // 2] * 3), (1, [nominal, 3 * nominal])]
    assert run.at_nominal_speed([10, 20, 30], calibration) == [20, 40, 15]
    assert 0 < run.calibration_kernel()


def test_latencies_are_per_op_medians_over_passes():
    # Two ops, three passes: op 0 ran 1, 3, 2 and op 1 ran 10, 20, 30.
    assert run.per_op_medians([1, 10, 3, 20, 2, 30], 2) == [2, 20]
    # A loop shorter than the op list gives each op its single time.
    assert run.per_op_medians([5, 4], 3) == [4, 5]
    metrics = run.end_to_end([1, 10, 3, 20, 2, 30], 2, 0.1, 20.0, 0)
    assert metrics["latency_p50_ms"] == 11 / 1e6
    assert metrics["latency_p90_ms"] == 20 / 1e6
