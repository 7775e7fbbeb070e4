"""The benchmark's own checks: its inputs are seeded and its gates can fail.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splab.cli as cli
import splab.equilibrium as equilibrium
import splab.oracle as oracle
import workloads as W
from tracer import ROOT_SPAN, Tracer

BENCH = Path(W.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_pass(workload) -> tuple[int, int]:
    result = workload.run_pass(Tracer())
    return result.items, workload.check(result)


# -- seeded inputs -----------------------------------------------------------


def test_threshold_order_is_a_function_of_the_seed():
    v_values = [t["v_B"] for t in W.load_reference("thresholds.json")["tables"]]
    assert W.threshold_order(1, v_values, 7) == W.threshold_order(1, v_values, 7)
    assert W.threshold_order(1, v_values, 7) != W.threshold_order(2, v_values, 7)


def test_audit_inputs_are_a_function_of_the_seed():
    def flat(seed, index):
        points, sim_at = W.audit_points(seed, index)
        return [(p.to_dict(), q, prices.tolist()) for p, q, prices in points], sim_at

    assert flat(1, 0) == flat(1, 0)
    assert flat(1, 0) != flat(2, 0)
    assert flat(1, 0) != flat(1, 1)
    assert W.sim_order(1, 64) == W.sim_order(1, 64) != W.sim_order(2, 64)


def test_threshold_table_never_repeats_a_v_B(tmp_path):
    workload = W.ThresholdTable(5, tmp_path)
    walked = [workload.tables[t]["v_B"] for t, _ in workload.order]
    assert len(set(walked)) == len(walked) == len(workload.tables)
    # A v_B that came round again would be served warm: the run refuses it.
    workload.order[1] = workload.order[0]
    one_pass(workload)
    with pytest.raises(RuntimeError, match="repeated"):
        one_pass(workload)


# -- each gate can fail --------------------------------------------------------


@pytest.mark.parametrize("cls", [W.RegionMap, W.ExtensionSweep])
def test_cli_workload_detects_a_corrupted_byte(cls, tmp_path, monkeypatch):
    workload = cls(0, tmp_path)
    items, failed = one_pass(workload)
    assert (items, failed) == (workload.items_per_pass, 0)

    write_rows = cli._write_rows

    def corrupting(rows, columns, args):
        write_rows(rows, columns, args)
        data = bytearray(Path(args.out).read_bytes())
        data[len(data) // 2] ^= 0x01
        Path(args.out).write_bytes(bytes(data))

    monkeypatch.setattr(cli, "_write_rows", corrupting)
    items, failed = one_pass(workload)
    assert failed > 0 and failed <= items


def test_cli_workload_detects_wrong_region_tallies(tmp_path):
    workload = W.RegionMap(0, tmp_path)
    counts = {f"equilibrium.kind.{k}": v for k, v in workload.golden[0]["kinds"].items()}
    assert workload.check_trace(counts) == 0
    counts["equilibrium.kind.R1"] -= 1
    counts["equilibrium.kind.R2"] += 1
    assert workload.check_trace(counts) == workload.items_per_pass


@pytest.mark.parametrize("name", ["h_star", "lambda_bar", "lambda_hat2", "h_underline", "v_bar"])
def test_threshold_table_detects_a_perturbed_field(name, tmp_path, monkeypatch):
    workload = W.ThresholdTable(7, tmp_path)
    items, failed = one_pass(workload)
    assert items > 0 and failed == 0

    thresholds = equilibrium.thresholds

    def perturbed(params):
        ts = thresholds(params)
        value = getattr(ts, name)
        return dataclasses.replace(ts, **{name: 0.75 if value is None else value + 1e-6})

    monkeypatch.setattr(equilibrium, "thresholds", perturbed)
    items, failed = one_pass(workload)
    assert failed == items > 0


def test_h_star_residual_detects_a_shifted_root():
    table = W.load_reference("thresholds.json")["tables"]
    call, v_B = next(
        (c, t["v_B"]) for t in table for c in t["calls"] if c["out"]["h_star"] < 0.99
    )
    h_star, lam = call["out"]["h_star"], call["lambda"]
    assert W.h_star_residual(h_star, lam, v_B) <= W.RESIDUAL_TOL
    assert W.h_star_residual(h_star + 1e-5, lam, v_B) > W.RESIDUAL_TOL


def _nudged_grid(grid_argmax):
    def nudged(params, quality, grid=None):
        price, profit = grid_argmax(params, quality, grid)
        return float(np.nextafter(price, 2.0)), profit

    return nudged


def _shifted_enumeration(enumerate_demand):
    def shifted(params, quality, price):
        return enumerate_demand(params, quality, price) + 1e-9

    return shifted


def _biased_simulation(simulate):
    def biased(*args, **kwargs):
        report = simulate(*args, **kwargs)
        return dataclasses.replace(report, est_demand=report.est_demand + 1e-3)

    return biased


@pytest.mark.parametrize(
    "attr, make",
    [
        ("grid_argmax", _nudged_grid),
        ("demand_by_enumeration", _shifted_enumeration),
        ("simulate_market", _biased_simulation),
    ],
)
def test_oracle_audit_detects_a_perturbed_output(attr, make, tmp_path, monkeypatch):
    workload = W.OracleAudit(11, tmp_path)
    items, failed = one_pass(workload)
    assert items == W.POINTS_PER_AUDIT_PASS and failed == 0

    monkeypatch.setattr(oracle, attr, make(getattr(oracle, attr)))
    items, failed = one_pass(workload)
    assert failed > 0


def test_monte_carlo_gate_is_four_standard_errors(tmp_path):
    workload = W.OracleAudit(13, tmp_path)
    out = None
    while out is None:  # a case with sampling noise: not a price nobody buys at
        result = workload.run_pass(Tracer())
        out = next(o for o in result.outputs if o["report"] is not None)
        out = out if out["report"].se_demand > 0 else None
    assert W.point_ok(out)
    report, case = out["report"], out["case"]
    analytic = oracle.demand_by_enumeration(
        W.case_params(case), W.Quality(case["quality"]), case["price"]
    )
    for sigmas, ok in ((3.9, True), (4.1, False)):
        moved = dataclasses.replace(
            report, est_demand=analytic + sigmas * report.se_demand
        )
        case = {**case, "report": moved.to_json()}
        assert W.point_ok({**out, "report": moved, "case": case}) is ok


# -- tracing -------------------------------------------------------------------


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    tracer.active = True
    root = tracer.open(ROOT_SPAN)
    with tracer.span("a"):
        with tracer.span("b"):
            sum(range(1000))
        with tracer.span("b"):
            sum(range(1000))
    tracer.close(root)
    (record,) = tracer.passes()
    assert sum(record["self_ns"].values()) == record["root_ns"]
    assert record["calls"] == {ROOT_SPAN: 1, "a": 1, "b": 2}


def test_spans_that_do_not_nest_are_refused():
    tracer = Tracer()
    tracer.active = True
    root = tracer.open(ROOT_SPAN)
    child = tracer.open("a")
    tracer.close(child)
    tracer.close(root)
    tracer._end[child] = tracer._end[root] + 10  # child outlives its parent
    with pytest.raises(RuntimeError, match="add to"):
        tracer.passes()


# -- the command -----------------------------------------------------------------


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_metric(trace, section):
    done = run_bench(ROOT, "--workload", "oracle-audit", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "environment" in json.loads(report_line)["report"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "--workload", "region-map", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
