"""splab benchmark: run one seeded workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload region-map --seed 1 --seconds 20 --trace 0

Workloads: region-map, extension-sweep, threshold-table, oracle-audit (see
bench/README.md).  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, writing every span to ``.bench_out/``.  The next-to-last
line of standard output is a report with every metric, its unit, sample
counts and the environment; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

The library is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2 and prints no result if that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Seconds of passes between two readings of the reference kernel.
CALIBRATE_EVERY_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Put the checkout's src/ first on sys.path and import splab from it."""
    if not (SRC / "splab" / "__init__.py").is_file():
        print(f"bench: no splab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import splab

    if Path(splab.__file__).resolve().parent != SRC / "splab":
        print(f"bench: imported splab from {splab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def timing_summary(samples: list[float], scale: float) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered) * scale}
    for pct in PERCENTILES:
        if pct > 50.0 and n * (1.0 - pct / 100.0) >= 10:
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            out["tail"] = {"pct": pct, "value": ordered[rank] * scale}
            break
    return out


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/ so a result names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "threads": thread_count(),
    }


# ---------------------------------------------------------------------------
# Set-up time: fresh interpreters up to the first item done.
# ---------------------------------------------------------------------------


def probe(workload_cls, seed: int) -> None:
    """Child side: do the workload's first item, print the monotonic clock."""
    from tracer import Tracer

    tmpdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        workload_cls(seed, tmpdir).first_item(Tracer())
        done = time.monotonic()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(repr(done))


def setup_times(workload, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to its first item done,
    raw and scaled by the reference kernel read before and after each.

    CLOCK_MONOTONIC is system-wide, so the child's clock reading at the
    moment the item is done can be compared with the parent's at spawn.
    """
    import calibrate

    raw = []
    readings = [workload.kernel()]
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", workload.name, "--seed", str(seed), "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=120, check=False)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        raw.append(float(child.stdout.split()[-1]) - start)
        readings.append(workload.kernel())
    scaled = [t * calibrate.scale(readings[i], readings[i + 1]) for i, t in enumerate(raw)]
    return raw, scaled


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def measure(workload, seconds: float, trace: bool):
    """Run passes for ``seconds``; in trace mode odd passes are traced."""
    import calibrate
    import layers
    from tracer import ROOT_SPAN, Tracer

    equilibrium = sys.modules["splab.equilibrium"]
    tracer = Tracer()
    runs = {False: {"items": 0, "raw": [], "passes": 0, "pending": []},
            True: {"items": 0, "raw": [], "passes": 0, "pending": []}}
    readings = [workload.kernel()]
    last_reading = time.monotonic()
    traced_stats = []
    attempted = failed = 0
    minimum = 2 if trace else 1
    deadline = time.monotonic() + seconds
    index = 0
    while not workload.exhausted() and (index < minimum or time.monotonic() < deadline):
        traced = trace and index % 2 == 1
        index += 1
        if traced:
            layers.install(tracer)
            tracer.counts.clear()
            cache_before = equilibrium._structure_constants.cache_info()
            tracer.active = True
            root = tracer.open(ROOT_SPAN)
        try:
            result = workload.run_pass(tracer)
        except Exception:  # a library failure counts as a failed pass
            traceback.print_exc(file=sys.stderr)
            result = None
        finally:
            if traced:
                tracer.close(root)
                tracer.active = False
                tracer.uninstall()
        if result is None:
            items = getattr(workload, "items_per_pass", 1)
            attempted += items
            failed += items
            continue
        bad = workload.check(result)
        attempted += result.items
        failed += bad
        side = runs[traced]
        side["items"] += result.items
        side["raw"].extend(result.latencies)
        side["pending"].append((result, len(readings) - 1))
        side["passes"] += 1
        if time.monotonic() - last_reading >= CALIBRATE_EVERY_S:
            readings.append(workload.kernel())
            last_reading = time.monotonic()
        if traced:
            failed += workload.check_trace(tracer.counts)
            cache_after = equilibrium._structure_constants.cache_info()
            traced_stats.append({
                "items": result.items,
                "counts": tracer.counts.copy(),
                "cache_hits": cache_after.hits - cache_before.hits,
                "cache_misses": cache_after.misses - cache_before.misses,
            })
    readings.append(workload.kernel())
    for side in runs.values():
        side["scaled"], side["pass_rates"], side["scales"] = [], [], []
        for result, i in side.pop("pending"):
            factor = calibrate.scale(readings[i], readings[i + 1])
            side["scaled"].extend((kind, seconds * factor) for kind, seconds in result.latencies)
            side["pass_rates"].append(result.items / sum(s * factor for _, s in result.latencies))
            side["scales"].append(factor)
    return runs, readings, traced_stats, tracer, attempted, failed


def throughput(side: dict) -> float:
    """Median over passes of items per scaled second."""
    return statistics.median(side["pass_rates"])


def end_to_end(workload, runs, readings: list[float], setup: tuple[list[float], list[float]]):
    """(result metrics, report metrics) of an untraced run.

    Result timings are scaled to the reference kernel's nominal speed; the
    report carries them next to the raw wall-clock figures.
    """
    import calibrate

    side = runs[False]
    raw_setup, scaled_setup = setup
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "items_per_s": (throughput(side), "1/s"),
        "latency_p50_ms": (statistics.median(s for _, s in side["scaled"]) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = {
        "setup_s": {"unit": "s", "n": len(raw_setup),
                    "scaled": statistics.median(scaled_setup),
                    "raw": statistics.median(raw_setup), "raw_samples": raw_setup},
        "items_per_s": {"unit": "1/s", "scaled": metrics["items_per_s"][0],
                        "raw": side["items"] / sum(s for _, s in side["raw"]),
                        "items": side["items"], "passes": side["passes"]},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "kernel": {"name": workload.kernel.__name__, "unit": "s", "n": len(readings),
                   "median": statistics.median(readings), "nominal": calibrate.NOMINAL_S},
    }
    kinds = sorted({kind for kind, _ in side["raw"]})
    groups = [("latency_ms", None)]
    if kinds == ["cold", "warm"]:
        groups += [("thresholds_cold_ms", "cold"), ("thresholds_warm_ms", "warm")]
    for name, kind in groups:
        report[name] = {"unit": "ms"}
        for key in ("scaled", "raw"):
            samples = [s for k, s in side[key] if kind is None or k == kind]
            report[name][key] = timing_summary(samples, 1e3)
    return metrics, report


def per_layer(runs, traced_stats, tracer) -> tuple[dict, dict]:
    import layers

    passes = tracer.passes()
    overhead = 1.0 - throughput(runs[True]) / throughput(runs[False])
    metrics = layers.per_layer_metrics(passes, runs[True]["scales"], traced_stats, overhead)
    report = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    report["trace.passes"] = {"untraced": runs[False]["passes"], "traced": runs[True]["passes"],
                              "spans": tracer.span_count()}
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy reads these when first imported: keep the load on one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_library()
    from workloads import WORKLOADS
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.probe:
        probe(workload_cls, args.seed)
        return 0

    tmpdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        workload = workload_cls(args.seed, tmpdir)
        setup = None if args.trace else setup_times(workload, args.seed)
        workload.warm_up(Tracer())
        runs, readings, traced_stats, tracer, attempted, failed = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    correct = failed == 0
    if args.trace:
        try:
            metrics, report = per_layer(runs, traced_stats, tracer)
        except RuntimeError as exc:  # spans that do not nest
            print(f"bench: trace inconsistent: {exc}", file=sys.stderr)
            return 1
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_file)
        report["trace.spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, report = end_to_end(workload, runs, readings, setup)
    report["failed_frac"] = {"value": failed / attempted if attempted else 1.0,
                             "unit": "frac", "attempted": attempted, "failed": failed}
    print(json.dumps({
        "report": {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "environment": environment(args.seed), "metrics": report},
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
