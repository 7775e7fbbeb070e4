"""Record the reference outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/make_reference.py

Writes ``bench/data/golden.json`` (byte digests of the CLI workloads' output
and their region tallies, plus the recorded Monte-Carlo cases) and
``bench/data/thresholds.json`` (every ThresholdSet field for the
threshold-table pool).  The pools are drawn from fixed generator seeds; the
benchmark's ``--seed`` only orders them.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import splab.cli as cli  # noqa: E402
import splab.equilibrium as equilibrium  # noqa: E402
import splab.oracle as oracle  # noqa: E402
from splab.model import ModelParams, Quality  # noqa: E402

from workloads import (  # noqa: E402
    DATA,
    EXTENSION_SWEEP_CALLS,
    REGION_MAP_CALLS,
    THRESHOLD_CALL_FIELDS,
    THRESHOLD_GLOBAL_FIELDS,
    THRESHOLD_VB_FIELDS,
    digest,
)

THRESHOLD_TABLES = 512
CALLS_PER_TABLE = 7  # one cold call, six warm
V_B_RANGE = (0.0, 0.6)
SIM_CASES = 64
SIM_DRAWS = 1_000_000
SIGNIFICANT = 12  # digits stored: far finer than the 1e-8 comparison


def rounded(value):
    return None if value is None else float(format(value, f".{SIGNIFICANT}g"))


def cli_golden(calls) -> list[dict]:
    out = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for argv in calls:
            tally = collections.Counter()
            classify = cli.classify_equilibrium

            def counted(params):
                label, outcome = classify(params)
                tally[label] += 1
                return label, outcome

            cli.classify_equilibrium = counted
            try:
                path = Path(tmp) / "out"
                if cli.main([*argv, "--out", str(path)]) != 0:
                    raise SystemExit(f"reference call failed: {argv}")
            finally:
                cli.classify_equilibrium = classify
            out.append({"argv": list(argv), "rows": sum(tally.values()),
                        "kinds": dict(sorted(tally.items())), **digest(path.read_bytes())})
    return out


def threshold_pool() -> dict:
    rng = np.random.default_rng(20210504)
    values: list[float] = []
    while len(values) < THRESHOLD_TABLES:
        v = round(float(rng.uniform(*V_B_RANGE)), 6)
        if v not in values:
            values.append(v)
    tables = []
    for k, v_B in enumerate(values):
        calls = []
        for _ in range(CALLS_PER_TABLE):
            h = round(float(rng.uniform(0.5, 1.0)), 4)
            lam = round(float(rng.uniform(0.0, 1.0)), 4)
            ts = equilibrium.thresholds(ModelParams(h=h, lam=lam, v_B=v_B))
            calls.append({"h": h, "lambda": lam,
                          "out": {f: rounded(getattr(ts, f)) for f in THRESHOLD_CALL_FIELDS}})
        tables.append({"v_B": v_B,
                       "fixed": {f: rounded(getattr(ts, f)) for f in THRESHOLD_VB_FIELDS},
                       "calls": calls})
        if k % 64 == 63:
            print(f"thresholds: {k + 1}/{THRESHOLD_TABLES}", file=sys.stderr)
    return {"globals": {f: rounded(getattr(ts, f)) for f in THRESHOLD_GLOBAL_FIELDS},
            "tables": tables}


def sim_cases() -> list[dict]:
    rng = np.random.default_rng(20210505)
    cases = []
    for k in range(SIM_CASES):
        case = {
            "h": round(float(rng.uniform(0.5, 1.0)), 4),
            "lambda": round(float(rng.uniform(0.0, 1.0)), 4),
            "v_B": round(float(rng.uniform(0.0, 0.95)), 4),
            "quality": "G" if k % 2 == 0 else "B",
            "price": round(float(rng.uniform(0.0, 1.0)), 4),
            "draws": SIM_DRAWS,
            "seed": 1000 + k,
        }
        params = ModelParams(h=case["h"], lam=case["lambda"], v_B=case["v_B"])
        report = oracle.simulate_market(params, Quality(case["quality"]), case["price"],
                                        draws=SIM_DRAWS, seed=case["seed"])
        case["report"] = report.to_json()
        cases.append(case)
    return cases


def main() -> None:
    golden = {
        "cli": {
            "region-map": cli_golden(REGION_MAP_CALLS),
            "extension-sweep": cli_golden(EXTENSION_SWEEP_CALLS),
        },
        "sims": sim_cases(),
    }
    with open(DATA / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    with open(DATA / "thresholds.json", "w", encoding="utf-8") as fh:
        json.dump(threshold_pool(), fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
