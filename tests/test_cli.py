"""End-to-end tests of the splab command line."""

import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bisection_thresholds
import splab.cli
from splab.cli import main

VERIFY_GOLDEN = Path(__file__).resolve().parent / "data" / "verify_seed0.txt"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def _src_env() -> dict:
    """The environment for running `python -m splab.cli` from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}


def _moved(thresholds, name="h_underline"):
    """`thresholds` with one closed-form field raised by 1e-6."""
    def moved(params):
        ts = thresholds(params)
        value = getattr(ts, name)
        return ts if value is None else dataclasses.replace(ts, **{name: value + 1e-6})
    return moved


def _nudged(grid_argmax):
    """`grid_argmax` with its price one ulp up."""
    def nudged(*args):
        price, profit = grid_argmax(*args)
        return math.nextafter(price, math.inf), profit
    return nudged


def _biased(simulate_market):
    """`simulate_market` with its demand estimate 0.05 too high."""
    def biased(*args, **kwargs):
        report = simulate_market(*args, **kwargs)
        return dataclasses.replace(report, est_demand=report.est_demand + 0.05)
    return biased


#: Each `verify` check, the `splab.cli` name of the one input it compares,
#: and a wrapper that perturbs that input just enough to fail the check.
VERIFY_PERTURBATIONS = {
    "oracle-vs-solver price agreement": ("grid_argmax", _nudged),
    "piecewise profit identity": ("expected_demand", lambda real: lambda *a: real(*a) + 1e-9),
    "threshold certificates": ("thresholds", _moved),
    "Monte-Carlo demand": ("simulate_market", _biased),
}


class TestSolve:
    def test_single_point_csv(self, capsys):
        code, out = run(capsys, "solve", "--h", "0.7", "--lambda", "1", "--vb", "0.1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "h,lambda,v_B,gamma,mu0,kind,price,low_price,alpha,"
            "profit_G,profit_B,region,candidate_level"
        )
        assert lines[1] == "0.7,1,0.1,0.5,0.5,pooling,0.55,,,0.4675,0.3575,R3,3"
        assert len(lines) == 2

    def test_single_point_json(self, capsys):
        code, out = run(
            capsys, "solve", "--h", "0.7", "--lambda", "1", "--vb", "0.1",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "pooling" and row["region"] == "R3"
        assert row["price"] == pytest.approx(0.55)
        assert row["low_price"] is None and row["alpha"] is None

    def test_mixed_point_reports_both_prices(self, capsys):
        code, out = run(
            capsys, "solve", "--h", "1", "--lambda", "0", "--vb", "0.22",
            "--format", "json",
        )
        row = json.loads(out)[0]
        assert row["kind"] == "mixed"
        assert row["price"] == pytest.approx(0.88)
        assert row["low_price"] == pytest.approx(0.22)
        assert 0 < row["alpha"] < 1

    def test_rejects_ranges(self, capsys):
        code, _ = run(capsys, "solve", "--h", "0.5:1:3", "--vb", "0.1")
        assert code == 2

    def test_naive_market_with_free_gamma(self, capsys):
        code, out = run(capsys, "solve", "--h", "0.7", "--gamma", "0.6")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["kind"] == "pooling" and row["price"] == "0.442"


class TestSweep:
    def test_row_order_is_grid_order(self, capsys):
        code, out = run(
            capsys, "sweep", "--h", "0.5:1:2", "--lambda", "0:1:2", "--vb", "0.1"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        coords = [(r["h"], r["lambda"]) for r in rows]
        assert coords == [("0.5", "0"), ("0.5", "1"), ("1", "0"), ("1", "1")]

    def test_round_trip_is_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(
                ["sweep", "--h", "0.5:1:11", "--lambda", "0:1:5",
                 "--vb", "0.1", "--out", str(p)]
            )
            assert code == 0
        capsys.readouterr()
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        assert b"\r" not in a  # LF-only line endings
        a.decode("utf-8")

    def test_none_cells_have_empty_numeric_fields(self, capsys):
        code, out = run(capsys, "sweep", "--h", "1", "--lambda", "0.5", "--vb", "0.1")
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["kind"] == "none"
        assert row["price"] == "" and row["profit_G"] == ""


class TestRegions:
    def test_mixed_band_in_naive_market(self, capsys):
        code, out = run(
            capsys, "regions", "--h", "0.95:1:3", "--lambda", "0", "--vb", "0.22"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["classification"] for r in rows] == ["mixed", "mixed", "mixed"]

    def test_classification_vocabulary(self, capsys):
        code, out = run(
            capsys, "regions", "--h", "0.5:1:11", "--lambda", "0:1:5", "--vb", "0.1"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        allowed = {"R1", "R2", "R3", "R4", "mixed", "none"}
        assert {r["classification"] for r in rows} <= allowed


class TestCompare:
    def test_crossings_match_corollary_thresholds(self, capsys):
        code, out = run(capsys, "compare", "--h", "0.5:1:501", "--vb", "0.1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        hs = np.array([float(r["h"]) for r in rows])
        gap_G = np.array(
            [float(r["profit_G_naive"]) - float(r["profit_G_soph"]) for r in rows]
        )
        gap_B = np.array(
            [float(r["profit_B_naive"]) - float(r["profit_B_soph"]) for r in rows]
        )
        # Ignore the h=0.5 tie, then find strict sign changes.
        signs_G = np.sign(gap_G[np.abs(gap_G) > 1e-13])
        cross_G = hs[np.abs(gap_G) > 1e-13][:-1][np.diff(signs_G) != 0]
        signs_B = np.sign(gap_B[np.abs(gap_B) > 1e-13])
        cross_B = hs[np.abs(gap_B) > 1e-13][:-1][np.diff(signs_B) != 0]
        assert len(cross_G) == 2
        assert cross_G[0] == pytest.approx(2 / 2.9, abs=0.01)
        assert cross_G[1] == pytest.approx(0.92796, abs=0.01)
        assert len(cross_B) == 1
        assert cross_B[0] == pytest.approx(0.77196, abs=0.01)

    def test_uninformative_row_is_flat(self, capsys):
        code, out = run(capsys, "compare", "--h", "0.5", "--vb", "0.1")
        row = next(csv.DictReader(io.StringIO(out)))
        assert set(row.values()) == {"0.5", "0.55"}

    def test_lambda_rejected(self, tmp_path, capsys):
        # compare fixes lambda at 0 and 1, so a given lambda is an error.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": "0.5:1:3", "lambda": 0.5}))
        for args in (
            ["compare", "--h", "0.5:1:3", "--lambda", "0:1:4"],
            ["compare", "--h", "0.5:1:3", "--lambda", "0"],
            ["compare", "--config", str(cfg)],
        ):
            code = main(args)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("splab: error:")

    @pytest.mark.parametrize("flag", ["--gamma", "--mu0"])
    def test_off_baseline_gamma_or_mu0_rejected(self, flag, capsys):
        # Its lambda=1 market is solved on the symmetric baseline only, so
        # the error names compare, not a lambda the user never gave.
        code = main(["compare", "--h", "0.5:1:3", "--vb", "0.3", flag, "0.3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("splab: error: compare needs --gamma 0.5 and --mu0 0.5")
        assert "lam=" not in captured.err


class TestThresholdsCommand:
    def test_single_object_row(self, capsys):
        code, out = run(
            capsys, "thresholds", "--h", "0.7", "--lambda", "0.3", "--vb", "0.1",
            "--format", "json",
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["h_star"] == pytest.approx(0.8058, abs=1e-3)
        assert row["h_underline"] == pytest.approx(0.68966, abs=1e-4)
        assert row["v_bar"] == pytest.approx(0.09384, abs=1e-4)


class TestConfigAndErrors:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.7, "lambda": 1, "v_B": 0.1}))
        code, out = run(capsys, "solve", "--config", str(cfg))
        assert code == 0 and ",R3," in out
        code, out = run(capsys, "solve", "--config", str(cfg), "--h", "0.55")
        assert code == 0 and ",R1," in out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.7, "bogus": 1}))
        code, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("key", ["seed", "draws"])
    def test_verify_settings_are_not_config_keys(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.7, key: 1}))
        code, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("out", [5, True, ["a"]])
    def test_config_out_must_be_a_file_name(self, tmp_path, capsys, out):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.7, "out": out}))
        code = main(["solve", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("splab: error:")

    @pytest.mark.parametrize("overridden", [False, True], ids=["alone", "overridden"])
    @pytest.mark.parametrize("key,bad,flag", [
        ("format", 5, ["--format", "csv"]),
        ("format", "tsv", ["--format", "json"]),
        ("out", 5, ["--out", "out.csv"]),
    ])
    def test_bad_config_value_rejected_even_under_its_flag(
        self, tmp_path, capsys, monkeypatch, key, bad, flag, overridden
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.7, key: bad}))
        code = main(["solve", "--config", str(cfg), *(flag if overridden else [])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"splab: error: config {key} must")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_rejected_before_solving(self, tmp_path, capsys, monkeypatch, source):
        # An empty name would otherwise send the output to stdout.
        def no_solving(*args):
            raise AssertionError("solved a point")

        monkeypatch.setattr(splab.cli, "classify_equilibrium", no_solving)
        if source == "flag":
            argv = ["solve", "--h", "0.7", "--out", ""]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"h": 0.7, "out": ""}))
            argv = ["solve", "--config", str(cfg)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("splab: error:") and captured.err.count("\n") == 1

    def test_missing_h_rejected(self, capsys):
        code, _ = run(capsys, "solve", "--vb", "0.1")
        assert code == 2

    def test_domain_errors_exit_two(self, capsys):
        code, _ = run(capsys, "solve", "--h", "1.2", "--vb", "0.1")
        assert code == 2
        code, _ = run(capsys, "solve", "--h", "0.7", "--lambda", "1", "--gamma", "0.3")
        assert code == 2

    def test_bad_axis_syntax_exit_two(self, capsys):
        code, _ = run(capsys, "sweep", "--h", "0.5:1", "--vb", "0.1")
        assert code == 2
        code, _ = run(capsys, "sweep", "--h", "0.5:1:1", "--vb", "0.1")
        assert code == 2

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("position", ["min", "max", "scalar"])
    def test_non_finite_axis_values_rejected(self, bad, position):
        # Refused before np.linspace sees them: no numpy warning, one line.
        text = {"min": f"{bad}:1:3", "max": f"0.5:{bad}:3", "scalar": bad}[position]
        proc = subprocess.run(
            [sys.executable, "-m", "splab.cli", "regions", f"--h={text}"],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"splab: error: --h values must be finite, got {text!r}\n"

    def test_overflowing_axis_width_rejected(self):
        # Both ends are finite but max - min is not: refused before
        # np.linspace warns and produces a nan point.
        text = "-1e308:1e308:3"
        proc = subprocess.run(
            [sys.executable, "-m", "splab.cli", "regions", "--h", "0.5", f"--lambda={text}",
             "--vb", "0.1"],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("splab: error: --lambda")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400])
    def test_non_finite_config_value_rejected(self, tmp_path, capsys, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"h": 0.7, "v_B": value}), encoding="utf-8")
        assert main(["regions", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("splab: error: --vb values must be finite") and err.count("\n") == 1

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code = main(["solve", "--h", "0.7", "--out", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("splab: error:")

    def test_grid_size_bounded_before_allocation(self, capsys):
        code, _ = run(capsys, "sweep", "--h", "0.5:1:1001", "--lambda", "0:1:1001")
        assert code == 2
        # Building this axis would take terabytes; the bound must come first.
        code, _ = run(capsys, "regions", "--h", "0.5:1:100000000000")
        assert code == 2

    def test_seed_offered_only_by_verify(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--h", "0.7", "--seed", "1"])
        assert exc.value.code == 2


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--seed", "0", "--draws", "20000")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 4
        assert all(l.startswith("PASS") for l in lines)

    def test_output_matches_golden(self, capsys):
        code, out = run(capsys, "verify", "--seed", "0", "--draws", "20000")
        assert code == 0
        assert out == VERIFY_GOLDEN.read_text(encoding="utf-8")

    @pytest.mark.parametrize("check", VERIFY_PERTURBATIONS, ids=lambda check: check.split()[0])
    def test_each_check_can_fail_alone(self, capsys, monkeypatch, check):
        name, perturb = VERIFY_PERTURBATIONS[check]
        monkeypatch.setattr(splab.cli, name, perturb(getattr(splab.cli, name)))
        code, out = run(capsys, "verify", "--seed", "0", "--draws", "20000")
        assert code == 3

        def lines(text, mine):
            return [l for l in text.splitlines()
                    if l.startswith(("PASS", "FAIL")) and (f": {check} (" in l) == mine]

        golden = VERIFY_GOLDEN.read_text(encoding="utf-8")
        failed, = lines(out, True)
        assert failed.startswith("FAIL")
        assert lines(out, False) == lines(golden, False)
        assert len(lines(golden, False)) == 3

    @pytest.mark.parametrize(
        "name", ["h_underline", "h_overline", "lambda_hat1", "lambda_hat2", "lambda_hat3"]
    )
    def test_threshold_check_fails_on_a_moved_closed_form(self, capsys, monkeypatch, name):
        monkeypatch.setattr(splab.cli, "thresholds", _moved(splab.cli.thresholds, name))
        code, out = run(capsys, "verify", "--seed", "0", "--draws", "20000")
        assert code == 3
        line, = [l for l in out.splitlines() if "threshold certificates" in l]
        assert line.startswith("FAIL") and "closed form - bisection" in line

    @pytest.mark.parametrize("seed", range(10))
    def test_single_draw_passes(self, capsys, seed):
        # One draw has no sample SE; all-bought or none-bought is judged by
        # its probability under the analytic demand.
        code, out = run(capsys, "verify", "--seed", str(seed), "--draws", "1")
        assert code == 0, out

    def test_single_draw_fails_on_an_impossible_outcome(self, capsys, monkeypatch):
        simulate = splab.cli.simulate_market

        def bought(*args, **kwargs):
            return dataclasses.replace(simulate(*args, **kwargs), est_demand=1.0)

        enumerate_demand = splab.cli.demand_by_enumeration

        def nobody(params, quality, price):
            # Only the Monte-Carlo check passes scalar prices.
            return enumerate_demand(params, quality, price) if np.ndim(price) else 0.0

        monkeypatch.setattr(splab.cli, "simulate_market", bought)
        monkeypatch.setattr(splab.cli, "demand_by_enumeration", nobody)
        code, out = run(capsys, "verify", "--seed", "0", "--draws", "1")
        assert code == 3
        failed = [l for l in out.splitlines() if l.startswith("FAIL:")]
        assert len(failed) == 1
        assert "Monte-Carlo demand" in failed[0] and "all 1 draws bought" in failed[0]

    def test_single_draw_detail_counts_the_runs_without_an_se(self, capsys):
        # No run of one draw has a sample SE, so none enters the maximum.
        code, out = run(capsys, "verify", "--seed", "0", "--draws", "1")
        assert code == 0
        line, = [l for l in out.splitlines() if "Monte-Carlo demand" in l]
        assert line == (
            "PASS: Monte-Carlo demand (no run has a sample SE; "
            "6 all-or-none runs, none less likely than the 4-sigma tail)"
        )

    @pytest.mark.parametrize("draws", [splab.cli.MAX_VERIFY_DRAWS + 1, 2**128])
    def test_draws_bounded_before_any_simulation(self, capsys, monkeypatch, draws):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated a market")

        monkeypatch.setattr(splab.cli, "simulate_market", unreachable)
        code = main(["verify", "--draws", str(draws)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"splab: error: --draws must lie in [1, 100000000], got {draws}\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        v_B=st.floats(0.0, 0.95),
        max_level=st.integers(1, 3),
    )
    @example(lam=0.0, v_B=0.1, max_level=1)
    @example(lam=1.0, v_B=0.1, max_level=2)
    @example(lam=0.0, v_B=0.1, max_level=3)
    @example(lam=1.0, v_B=0.0, max_level=3)
    def test_level_boundary_matches_reference_bisection(self, lam, v_B, max_level):
        # The golden prints the gap to 3 digits; this holds every bit.
        got = splab.cli._bisected_level_boundary(lam, v_B, max_level)
        want = bisection_thresholds.level_boundary(lam, v_B, max_level)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "flag,value",
        [("--draws", "0"), ("--seed", "-1"), ("--seed", str(2**128 - 5))],
    )
    def test_bad_settings_exit_two_before_any_check(self, capsys, flag, value):
        code = main(["verify", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("splab: error:")

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--config", "cfg.json"), ("--h", "0.7"), ("--lambda", "0.3"),
            ("--vb", "0.1"), ("--gamma", "0.5"), ("--mu0", "0.5"),
            ("--out", "out.csv"), ("--format", "csv"),
        ],
    )
    def test_takes_only_seed_and_draws(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, value])
        assert exc.value.code == 2


DEV_FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(
    not os.path.exists(DEV_FULL), reason="no /dev/full on this system"
)


class TestFullDevice:
    """Writes that fail with ENOSPC exit 2 with one error line, no traceback."""

    @needs_dev_full
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_on_full_device(self, capsys, fmt):
        code = main(["regions", "--h", "0.5:1:3", "--format", fmt, "--out", DEV_FULL])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"splab: error: cannot write --out {DEV_FULL}")

    @needs_dev_full
    @pytest.mark.parametrize("argv", [
        ["solve", "--h", "0.7"],
        ["regions", "--h", "0.5:1:3"],
        ["verify", "--seed", "0", "--draws", "10"],
    ], ids=["solve", "regions", "verify"])
    def test_stdout_on_full_device(self, argv):
        with open(DEV_FULL, "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "splab.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=_src_env(), timeout=120,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"splab: error: cannot write stdout")
        assert b"Traceback" not in proc.stderr
        assert b"Exception ignored" not in proc.stderr


class TestBrokenPipe:
    def test_closed_stdout_exits_two_without_traceback(self):
        # The read end is closed before the process starts, so its first
        # write to stdout fails with EPIPE whatever the timing.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "splab.cli", "sweep", "--h", "0.5:1:101"],
                stdout=write_end, stderr=subprocess.PIPE, env=_src_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"Exception ignored" not in proc.stderr


class FailingStdout(io.StringIO):
    """A stdout whose `fail_at`-th write (from 1) raises `error`."""

    def __init__(self, fail_at: int, error: OSError) -> None:
        super().__init__()
        self.fail_at, self.error, self.writes = fail_at, error, 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == self.fail_at:
            raise self.error
        return super().write(text)


#: A map of three chunks.
THREE_CHUNKS = ("regions", "--h", "0.5:1:96", "--lambda", "0:1:128", "--vb", "0.22")


class TestStdoutErrors:
    """Only a failed stdout write is reported as one."""

    def test_other_os_errors_propagate(self, capsys, monkeypatch):
        def timed_out(*args):
            raise TimeoutError("timed out")

        monkeypatch.setattr(splab.cli, "classify_equilibrium", timed_out)
        with pytest.raises(TimeoutError):
            main(list(THREE_CHUNKS))
        assert "cannot write stdout" not in capsys.readouterr().err

    def test_broken_pipe_stops_the_walk(self, capsys, monkeypatch):
        classify = splab.cli.classify_equilibrium
        calls = []

        def counted(*args):
            calls.append(None)
            return classify(*args)

        monkeypatch.setattr(splab.cli, "classify_equilibrium", counted)
        monkeypatch.setattr(sys, "stdout", FailingStdout(2, BrokenPipeError(errno.EPIPE, "pipe")))
        assert main(list(THREE_CHUNKS)) == 2
        assert capsys.readouterr().err == ""
        # A write of the first chunk failed, so no later chunk was solved.
        assert len(calls) == splab.cli.GRID_CHUNK < 96 * 128

    def test_full_stdout_is_reported(self, capsys, monkeypatch):
        full = OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(sys, "stdout", FailingStdout(1, full))
        assert main(list(THREE_CHUNKS)) == 2
        assert capsys.readouterr().err == (
            "splab: error: cannot write stdout: [Errno 28] No space left on device\n"
        )
