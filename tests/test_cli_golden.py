"""Byte-for-byte CLI output on small grids, against recorded goldens.

Each case runs one command in CSV and in JSON and compares stdout with
`tests/data/cli/<case>.<format>`.  Together the grids reach every region
label (R1..R4, mixed, none), the fully naive market at gamma/mu0 off the
baseline, h = 0.5, rows with empty cells, and absent thresholds.

To re-record after a deliberate output change, run from the repo root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import splab.cli
from splab.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "cli"
FORMATS = ("csv", "json")

CASES = {
    "solve_pooling": ["solve", "--h", "0.7", "--lambda", "0.3", "--vb", "0.1"],
    "solve_mixed": ["solve", "--h", "0.95", "--lambda", "0", "--vb", "0.22"],
    "sweep_baseline": ["sweep", "--h", "0.5:1:11", "--lambda", "0:1:6", "--vb", "0.22"],
    "sweep_naive_extensions": [
        "sweep", "--h", "0.5:1:6", "--vb", "0.1:0.3:3",
        "--gamma", "0.3:0.7:3", "--mu0", "0.4:0.6:3",
    ],
    "regions_baseline": ["regions", "--h", "0.5:1:11", "--lambda", "0:1:6", "--vb", "0.22"],
    "regions_naive_extensions": [
        "regions", "--h", "0.5:1:6", "--vb", "0.22",
        "--gamma", "0.2:0.8:4", "--mu0", "0.3:0.7:3",
    ],
    "compare": ["compare", "--h", "0.5:1:11", "--vb", "0.3"],
    "thresholds_all_present": ["thresholds", "--h", "0.7", "--lambda", "0.3", "--vb", "0.1"],
    "thresholds_some_absent": ["thresholds", "--h", "0.9", "--lambda", "0.8", "--vb", "0.3"],
}


def _output(argv: list[str], fmt: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([*argv, "--format", fmt])
    assert code == 0
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, fmt):
    golden = (GOLDEN_DIR / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert _output(CASES[case], fmt) == golden


@pytest.mark.parametrize("case", sorted(CASES))
def test_stats_leave_stdout_alone_and_tally_the_labels(case, capsys):
    assert main(CASES[case]) == 0
    plain = capsys.readouterr()
    assert main([*CASES[case], "--stats"]) == 0
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out
    assert plain.err == ""
    line, = with_stats.err.splitlines()
    stats = json.loads(line)
    rows = list(csv.DictReader(io.StringIO(plain.out)))
    if "classification" in rows[0]:
        labels = [row["classification"] for row in rows]
    elif "region" in rows[0]:
        labels = [row["region"] or row["kind"] for row in rows]
    else:
        labels = []
    assert stats["kinds"] == dict(sorted(Counter(labels).items()))
    assert stats["command"] == CASES[case][0]
    assert stats["points"] == len(rows)
    assert set(stats) == {"command", "points", "kinds", "parse_s", "solve_s", "write_s"}
    assert all(stats[f"{stage}_s"] >= 0.0 for stage in ("parse", "solve", "write"))


def test_cells_are_plain_python_values(monkeypatch):
    # The writer prints every number through '%.12g', exact only for
    # floats and small ints (the candidate levels).
    cells = set()

    def capture(rows, columns, args):
        for row in rows:
            cells.update((type(value), isinstance(value, int) and value) for value in row)

    monkeypatch.setattr(splab.cli, "_write_rows", capture)
    for argv in CASES.values():
        assert main(argv) == 0
    assert {kind for kind, _ in cells} == {float, int, str, type(None)}
    assert {value for kind, value in cells if kind is int} <= {1, 2, 3, 4, 5}


def test_goldens_reach_every_label_and_edge():
    labels = set()
    h_values = set()
    for case in ("regions_baseline", "regions_naive_extensions"):
        text = (GOLDEN_DIR / f"{case}.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        labels |= {row["classification"] for row in rows}
        h_values |= {row["h"] for row in rows}
    assert labels == {"R1", "R2", "R3", "R4", "mixed", "none"}
    assert "0.5" in h_values
    text = (GOLDEN_DIR / "sweep_naive_extensions.csv").read_text(encoding="utf-8")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {row["lambda"] for row in rows} == {"0"}
    assert {row["gamma"] for row in rows} > {"0.5"}
    assert {row["mu0"] for row in rows} > {"0.5"}
    text = (GOLDEN_DIR / "thresholds_some_absent.csv").read_text(encoding="utf-8")
    assert ",," in text


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        for fmt in FORMATS:
            (GOLDEN_DIR / f"{name}.{fmt}").write_text(_output(argv, fmt), encoding="utf-8")
    sys.exit(0)
