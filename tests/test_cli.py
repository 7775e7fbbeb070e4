"""End-to-end tests of the splab command line."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splab.cli
from splab.cli import main

VERIFY_GOLDEN = Path(__file__).resolve().parent / "data" / "verify_seed0.txt"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


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
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)

    def test_output_matches_golden(self, capsys):
        code, out = run(capsys, "verify", "--seed", "0", "--draws", "20000")
        assert code == 0
        assert out == VERIFY_GOLDEN.read_text(encoding="utf-8")

    def test_failing_check_leaves_later_checks_their_points(self, capsys, monkeypatch):
        real = splab.cli.check_no_separation

        def failing(params):
            return dataclasses.replace(real(params), separation_possible=True)

        monkeypatch.setattr(splab.cli, "check_no_separation", failing)
        code, out = run(capsys, "verify", "--seed", "0", "--draws", "20000")
        assert code == 3
        assert "FAIL: no-separation witnesses" in out

        def monte_carlo(text):
            return [l for l in text.splitlines() if "Monte-Carlo demand" in l]

        golden = VERIFY_GOLDEN.read_text(encoding="utf-8")
        assert monte_carlo(out) == monte_carlo(golden)

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


class TestBrokenPipe:
    def test_closed_stdout_exits_two_without_traceback(self):
        # The read end is closed before the process starts, so its first
        # write to stdout fails with EPIPE whatever the timing.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "splab.cli", "sweep", "--h", "0.5:1:101"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"Exception ignored" not in proc.stderr
