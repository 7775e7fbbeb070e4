"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/collect.py --seeds 1-10 --out bench/baseline

For every workload and seed it runs ``bench/run.py`` once (``--trace 0``,
or ``--trace 1`` with ``--trace``), appends the report and result lines to
``<out>/<workload>.jsonl`` and prints, per end-to-end metric, the median,
the quartiles and the interquartile range as a share of the median next to
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        log = args.out / f"{workload}{'-trace' if args.trace else ''}.jsonl"
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                ok = False
                continue
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"seed": seed, "report": report, "result": result}) + "\n")
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        if args.trace or not values:
            continue
        summary[workload] = {}
        for name, series in values.items():
            stats = spread(series)
            stats["bound"] = bounds.get(name)
            summary[workload][name] = stats
            print(f"{workload:16s} {name:16s} median {stats['median']:12.5g}  "
                  f"IQR/median {stats['iqr_frac']:.4f}  bound {stats['bound']}")
    if summary:
        with open(args.out / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
