"""Where the traced run cuts splab into layers, and the per-layer metrics.

``install`` wraps the module-level names through which one layer calls the
next.  ``per_layer_metrics`` turns the recorded passes into the metrics that
BENCHMARK.json lists under ``per_layer``.  Counts come from the first traced
pass, whose inputs depend only on the seed, so they repeat exactly; times are
medians over the traced passes of each pass's self time.
"""

from __future__ import annotations

import statistics

import splab.cli as cli
import splab.equilibrium as equilibrium
import splab.model as model
import splab.oracle as oracle

from tracer import ROOT_SPAN, Tracer
from workloads import KINDS

#: Bytes of float64/bool arrays grid_argmax materialises for n grid prices:
#: mesh, union, demand total, profits (8 B each) plus, per population cell,
#: a bool mask (1 B) and its float product (8 B).  Computed, not measured.
GRID_CELLS = 8


def grid_bytes(prices: int) -> int:
    return prices * (4 * 8 + GRID_CELLS * (1 + 8))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries; ``tracer.uninstall()`` undoes it."""

    def parser_traced(parser):
        parse_args = parser.parse_args

        def traced(*args, **kwargs):
            index = tracer.open("cli.parse")
            try:
                return parse_args(*args, **kwargs)
            finally:
                tracer.close(index)

        parser.parse_args = traced

    def rows(result):
        tracer.counts["cli.rows"] += len(result)

    def kind(result):
        tracer.counts[f"equilibrium.kind.{result[0]}"] += 1

    def grid(result):
        tracer.counts["oracle.grid_prices"] += len(result)

    tracer.wrap(cli, "build_parser", "cli.parse", on_result=parser_traced)
    tracer.wrap(cli, "_load_config", "cli.parse")
    tracer.wrap(cli, "_resolve_axes", "cli.parse")
    tracer.wrap(cli, "_solve_rows", "cli.solve", on_result=rows)
    tracer.wrap(cli, "_region_rows", "cli.solve", on_result=rows)
    tracer.wrap(cli, "_write_rows", "cli.write")
    tracer.wrap(cli, "classify_equilibrium", "equilibrium.classify", on_result=kind)
    tracer.wrap(equilibrium, "best_pooling_candidate", "equilibrium.candidate")
    tracer.wrap(equilibrium, "solve_gamma", "equilibrium.extension")
    tracer.wrap(equilibrium, "solve_prior", "equilibrium.extension")
    tracer.wrap(equilibrium, "build_wtp_schedule", "demand.schedule")
    tracer.count_calls(equilibrium, "expected_demand", "demand.expected_demand_calls")
    tracer.count_calls(model.ModelParams, "__post_init__", "model.params_built")
    tracer.wrap(oracle, "_grid_prices", "oracle.grid_prices", on_result=grid)

    bisect = equilibrium.bisect_threshold

    def counted_bisect(difference, *args, **kwargs):
        def counted(x):
            tracer.counts["oracle.bisect_evals"] += 1
            return difference(x)

        return bisect(counted, *args, **kwargs)

    tracer.replace(equilibrium, "bisect_threshold", counted_bisect)
    tracer.wrap(equilibrium, "bisect_threshold", "oracle.bisect")


#: per-layer metric -> (span whose self time it reports)
SELF_TIMES = {
    "cli.main_s": "cli.main",
    "cli.parse_s": "cli.parse",
    "cli.solve_self_s": "cli.solve",
    "cli.write_s": "cli.write",
    "equilibrium.classify_s": "equilibrium.classify",
    "equilibrium.candidate_s": "equilibrium.candidate",
    "equilibrium.extension_s": "equilibrium.extension",
    "equilibrium.thresholds_s": "equilibrium.thresholds",
    "equilibrium.pooling_s": "equilibrium.pooling",
    "demand.schedule_s": "demand.schedule",
    "oracle.bisect_s": "oracle.bisect",
    "oracle.grid_argmax_s": "oracle.grid_argmax",
    "oracle.grid_prices_s": "oracle.grid_prices",
    "oracle.enumeration_s": "oracle.enumeration",
    "oracle.sim_s": "oracle.sim",
    "trace.bench_s": ROOT_SPAN,
}
#: per-layer metric -> span whose call count it reports
CALLS = {
    "equilibrium.classify_calls": "equilibrium.classify",
    "equilibrium.candidate_calls": "equilibrium.candidate",
    "equilibrium.extension_calls": "equilibrium.extension",
    "equilibrium.thresholds_calls": "equilibrium.thresholds",
    "demand.schedule_builds": "demand.schedule",
    "oracle.bisect_calls": "oracle.bisect",
    "oracle.grid_argmax_calls": "oracle.grid_argmax",
}
#: per-layer metric -> counter
COUNTERS = (
    "cli.rows",
    "cli.bytes_out",
    "demand.expected_demand_calls",
    "model.params_built",
    "oracle.bisect_evals",
    "oracle.grid_prices",
    "oracle.sim_draws",
    *(f"equilibrium.kind.{k}" for k in KINDS),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(passes: list[dict], scales: list[float], traced: list[dict],
                      overhead: float) -> dict:
    """Metric name -> (value, unit) from the tracer's passes.

    ``scales`` takes each pass's times to the reference kernel's speed (see
    calibrate.py); ``traced`` holds, per traced pass, its item count,
    counters and the structure-cache hits and misses seen during it.
    """
    first, first_stats = passes[0], traced[0]
    counts = first_stats["counts"]

    def seconds(ns_of_pass) -> float:
        return statistics.median(ns_of_pass(p) * f for p, f in zip(passes, scales)) / 1e9

    out: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = (seconds(lambda p: p["self_ns"][span]), "s")
    out["trace.pass_s"] = (seconds(lambda p: p["root_ns"]), "s")
    for metric, span in CALLS.items():
        out[metric] = (first["calls"][span], "count")
    for counter in COUNTERS:
        out[counter] = (counts[counter], "B" if counter == "cli.bytes_out" else "count")
    hits, misses = first_stats["cache_hits"], first_stats["cache_misses"]
    out["equilibrium.structure_cache_hits"] = (hits, "count")
    out["equilibrium.structure_cache_misses"] = (misses, "count")
    out["equilibrium.structure_cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    out["equilibrium.candidate_calls_per_threshold"] = (
        _ratio(first["calls"]["equilibrium.candidate"], first["calls"]["equilibrium.thresholds"]),
        "count/call",
    )
    out["model.params_per_item"] = (
        _ratio(counts["model.params_built"], first_stats["items"]), "count/item",
    )
    out["oracle.evals_per_bisect"] = (
        _ratio(counts["oracle.bisect_evals"], first["calls"]["oracle.bisect"]), "count/call",
    )
    out["oracle.grid_bytes_computed"] = (grid_bytes(counts["oracle.grid_prices"]), "B")
    draws = sum(t["counts"]["oracle.sim_draws"] for t in traced)
    sim_ns = sum(p["self_ns"]["oracle.sim"] * f for p, f in zip(passes, scales))
    out["oracle.sim_draws_per_s"] = (_ratio(draws, sim_ns / 1e9), "1/s")
    out["trace.overhead_frac"] = (overhead, "frac")
    return out
