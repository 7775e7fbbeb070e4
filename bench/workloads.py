"""The four benchmark workloads: seeded inputs, timed passes, correctness checks.

Each workload is run in passes.  ``run_pass`` does the timed work and returns
the outputs; ``check`` then verifies them with the tracer off and returns how
many items failed.  The library is reached only through its public entry
points, called as module attributes (``cli.main``, ``equilibrium.thresholds``,
``oracle.grid_argmax`` ...) so that the traced run can wrap them.

Reference values (output bytes, threshold values, Monte-Carlo reports) were
recorded by ``make_reference.py`` and live in ``data/``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import splab.cli as cli
import splab.demand as demand
import splab.equilibrium as equilibrium
import splab.oracle as oracle
from splab.model import ModelParams, Quality

import calibrate
from tracer import Tracer

DATA = Path(__file__).resolve().parent / "data"

#: Tie residual allowed at h_star, and the gap allowed between a threshold
#: and its reference: loose enough for a closed-form engine, far below the
#: spacing of the grids anyone sweeps.
RESIDUAL_TOL = 1e-7
THRESHOLD_TOL = 1e-8
#: Enumeration and the schedule sum the same masses in different orders.
DEMAND_TOL = 1e-12
#: Monte-Carlo estimate must land within this many standard errors.
MC_SIGMAS = 4.0

REGION_MAP_CALLS = (
    ("regions", "--h", "0.5:1:201", "--lambda", "0:1:201", "--vb", "0.22"),
)
EXTENSION_SWEEP_CALLS = (
    ("sweep", "--format", "json", "--h", "0.5:1:201", "--gamma", "0.05:0.95:101",
     "--lambda", "0", "--vb", "0"),
    ("sweep", "--format", "json", "--h", "0.5:1:101", "--vb", "0:0.3:7",
     "--mu0", "0.05:0.95:31", "--lambda", "0"),
)
#: One-point calls that stand for the first item of a CLI workload.
FIRST_ITEM_CALLS = {
    "region-map": ("regions", "--h", "0.5", "--lambda", "0", "--vb", "0.22"),
    "extension-sweep": ("sweep", "--format", "json", "--h", "0.5", "--gamma", "0.05",
                        "--lambda", "0", "--vb", "0"),
}

THRESHOLD_BANDS = 8
POINTS_PER_AUDIT_PASS = 16
ENUMERATION_PRICES = 64

KINDS = ("R1", "R2", "R3", "R4", "mixed", "none")
THRESHOLD_CALL_FIELDS = ("h_star", "h_hat1", "h_hat2", "h_hat3", "lambda_bar")
THRESHOLD_VB_FIELDS = ("lambda_hat1", "lambda_hat2", "lambda_hat3", "h_underline", "h_overline")
THRESHOLD_GLOBAL_FIELDS = ("v_bar", "v_bar_prime")


def load_reference(name: str) -> dict:
    with open(DATA / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class PassResult:
    """Timed outputs of one pass, waiting to be checked."""

    items: int
    latencies: list[tuple[str, float]] = field(default_factory=list)
    outputs: list = field(default_factory=list)


class Workload:
    """One seeded workload.  Subclasses fill in the pass and its check."""

    name = ""
    #: Reference kernel whose speed the run's timings are scaled by.
    kernel = staticmethod(calibrate.python_kernel)

    def __init__(self, seed: int, tmpdir: Path) -> None:
        self.seed = seed
        self.tmpdir = tmpdir
        self.requests = 0

    def warm_up(self, tracer: Tracer) -> None:
        """Untimed work that fills lazy caches before measuring."""
        self.check(self.first_item(tracer))

    def first_item(self, tracer: Tracer) -> PassResult:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> int:
        """Number of items in the pass whose outputs are wrong."""
        raise NotImplementedError

    def check_trace(self, counts: dict) -> int:
        """Items of a traced pass whose layer counts contradict the reference."""
        return 0

    def exhausted(self) -> bool:
        return False

    def next_request(self, tracer: Tracer) -> None:
        tracer.item = self.requests
        self.requests += 1


# ---------------------------------------------------------------------------
# CLI workloads: fixed grids, output bytes compared with a recorded digest.
# ---------------------------------------------------------------------------


def digest(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


class CliWorkload(Workload):
    """Each pass runs every call of ``calls`` through ``splab.cli.main``.

    The grids are fixed: the recorded digests pin the output bytes, so the
    seed does not change what the program is asked to do.
    """

    calls: tuple[tuple[str, ...], ...] = ()

    def __init__(self, seed: int, tmpdir: Path) -> None:
        super().__init__(seed, tmpdir)
        golden = load_reference("golden.json")["cli"][self.name]
        if [tuple(g["argv"]) for g in golden] != [tuple(c) for c in self.calls]:
            raise RuntimeError(f"{self.name}: recorded calls differ from the workload")
        self.golden = golden
        self.items_per_pass = sum(g["rows"] for g in golden)

    def _call(self, argv: tuple[str, ...], tracer: Tracer, result: PassResult, index: int,
              golden: Optional[dict]) -> None:
        out = self.tmpdir / f"{self.name}-{index}.out"
        self.next_request(tracer)
        t0 = time.perf_counter()
        with tracer.span("cli.main"):
            code = cli.main([*argv, "--out", str(out)])
        result.latencies.append(("call", time.perf_counter() - t0))
        data = out.read_bytes()
        out.unlink()
        if tracer.active:
            tracer.counts["cli.bytes_out"] += len(data)
        result.outputs.append((code, digest(data), golden))

    def first_item(self, tracer: Tracer) -> PassResult:
        result = PassResult(items=1)
        self._call(FIRST_ITEM_CALLS[self.name], tracer, result, 0, None)
        return result

    def run_pass(self, tracer: Tracer) -> PassResult:
        result = PassResult(items=self.items_per_pass)
        for index, (argv, golden) in enumerate(zip(self.calls, self.golden)):
            self._call(argv, tracer, result, index, golden)
        return result

    def check(self, result: PassResult) -> int:
        failed = 0
        for code, got, golden in result.outputs:
            if code != 0:
                failed += golden["rows"] if golden else 1
            elif golden is not None and (
                got["bytes"] != golden["bytes"] or got["sha256"] != golden["sha256"]
            ):
                failed += golden["rows"]
        return failed

    def check_trace(self, counts: dict) -> int:
        want = collections.Counter()
        for golden in self.golden:
            want.update(golden["kinds"])
        got = {k: counts.get(f"equilibrium.kind.{k}", 0) for k in KINDS}
        return 0 if got == {k: want[k] for k in KINDS} else self.items_per_pass


class RegionMap(CliWorkload):
    name = "region-map"
    calls = REGION_MAP_CALLS


class ExtensionSweep(CliWorkload):
    name = "extension-sweep"
    calls = EXTENSION_SWEEP_CALLS


# ---------------------------------------------------------------------------
# threshold-table: one cold thresholds() call per fresh v_B, then warm calls.
# ---------------------------------------------------------------------------


def threshold_order(seed: int, v_values: list[float], calls: int) -> list[tuple[int, list[int]]]:
    """Seeded order of the reference tables and of the calls within each.

    Each table has its own v_B, so walking a permutation never repeats a v_B.
    The order cycles through equal-sized bands of v_B, so that every run,
    whatever its seed or length, spreads its cold calls over the whole range
    (their cost depends on v_B).
    """
    rng = np.random.default_rng([seed, 2])
    by_v = sorted(range(len(v_values)), key=v_values.__getitem__)
    bands = [rng.permutation(band) for band in np.array_split(by_v, THRESHOLD_BANDS)]
    order = []
    for round_ in zip(*bands):
        order.extend(round_[b] for b in rng.permutation(THRESHOLD_BANDS))
    return [(int(t), [int(c) for c in rng.permutation(calls)]) for t in order]


def h_star_residual(h_star: float, lam: float, v_B: float) -> float:
    """|best profit at levels 1-2 minus best at levels 3-5| at h_star.

    Computed from the public schedule, independently of the threshold code:
    h_star is where the high type's optimal level leaves {1, 2}, so the two
    maxima tie there.
    """
    schedule = demand.build_wtp_schedule(ModelParams(h=h_star, lam=lam, v_B=v_B))
    profits = [lvl.wtp * cov for lvl, cov in zip(schedule.levels, schedule.coverage_G)]
    return abs(max(profits[:2]) - max(profits[2:]))


def _close(got: Optional[float], want: Optional[float]) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= THRESHOLD_TOL


class ThresholdTable(Workload):
    """Library calls ``thresholds(ModelParams(h, lam, v_B))``.

    A pass is one reference table: a v_B this process has not seen (its first
    call is cold, filling ``_structure_constants``) and warm calls at the
    table's other (h, lam).  The seed orders the tables and the calls.
    """

    name = "threshold-table"

    def __init__(self, seed: int, tmpdir: Path) -> None:
        super().__init__(seed, tmpdir)
        ref = load_reference("thresholds.json")
        self.globals = ref["globals"]
        self.tables = ref["tables"]
        v_values = [t["v_B"] for t in self.tables]
        if len(set(v_values)) != len(v_values):
            raise RuntimeError("threshold reference repeats a v_B")
        calls = len(self.tables[0]["calls"])
        self.order = threshold_order(seed, v_values, calls)
        self.next_table = 0
        self.seen_v: set[float] = set()

    def exhausted(self) -> bool:
        return self.next_table >= len(self.order)

    def _table(self, tracer: Tracer, only_first: bool) -> PassResult:
        index, call_order = self.order[self.next_table]
        self.next_table += 1
        table = self.tables[index]
        v_B = table["v_B"]
        if v_B in self.seen_v:
            raise RuntimeError(f"v_B {v_B} repeated within one process")
        self.seen_v.add(v_B)
        if only_first:
            call_order = call_order[:1]
        result = PassResult(items=len(call_order))
        for position, c in enumerate(call_order):
            h, lam = table["calls"][c]["h"], table["calls"][c]["lambda"]
            self.next_request(tracer)
            t0 = time.perf_counter()
            with tracer.span("equilibrium.thresholds"):
                ts = equilibrium.thresholds(ModelParams(h=h, lam=lam, v_B=v_B))
            result.latencies.append(("cold" if position == 0 else "warm", time.perf_counter() - t0))
            result.outputs.append((table, c, ts))
        return result

    def first_item(self, tracer: Tracer) -> PassResult:
        return self._table(tracer, only_first=True)

    def run_pass(self, tracer: Tracer) -> PassResult:
        return self._table(tracer, only_first=False)

    def check(self, result: PassResult) -> int:
        return sum(not self.matches_reference(*out) for out in result.outputs)

    def matches_reference(self, table: dict, c: int, ts) -> bool:
        call = table["calls"][c]
        want = {**self.globals, **table["fixed"], **call["out"]}
        if not all(_close(getattr(ts, name), want[name]) for name in want):
            return False
        if ts.h_star is not None and ts.h_star < 1.0:
            return h_star_residual(ts.h_star, call["lambda"], table["v_B"]) <= RESIDUAL_TOL
        return True


# ---------------------------------------------------------------------------
# oracle-audit: solver against the numpy oracle at seeded base points.
# ---------------------------------------------------------------------------


def audit_points(seed: int, pass_index: int) -> tuple[list[tuple], int]:
    """Seeded base points of one pass and the index that gets a simulation.

    Each point is (params, enumeration quality, enumeration price vector).
    """
    rng = np.random.default_rng([seed, 3, pass_index])
    points = []
    for k in range(POINTS_PER_AUDIT_PASS):
        params = ModelParams(
            h=float(rng.uniform(0.5, 1.0)),
            lam=float(rng.uniform(0.0, 1.0)),
            v_B=float(rng.uniform(0.0, 0.95)),
        )
        prices = np.append(rng.uniform(0.0, 1.0, ENUMERATION_PRICES), params.v_B)
        points.append((params, Quality.G if k % 2 == 0 else Quality.B, prices))
    return points, int(rng.integers(POINTS_PER_AUDIT_PASS))


def sim_order(seed: int, cases: int) -> list[int]:
    return [int(i) for i in np.random.default_rng([seed, 4]).permutation(cases)]


class OracleAudit(Workload):
    """Each point: solve_pooling, grid_argmax for both qualities on the
    default 100 001-point grid, demand_by_enumeration on a price vector.

    One point per pass also replays a recorded 10^6-draw Monte-Carlo case.
    The cases were recorded at the reference commit so a replay can be held
    to byte identity; the seed picks their order.
    """

    name = "oracle-audit"
    kernel = staticmethod(calibrate.numpy_kernel)

    def __init__(self, seed: int, tmpdir: Path) -> None:
        super().__init__(seed, tmpdir)
        self.cases = load_reference("golden.json")["sims"]
        self.case_order = sim_order(seed, len(self.cases))
        self.passes = 0
        self.sims = 0

    def _audit(self, tracer: Tracer, params: ModelParams, quality: Quality,
               prices: np.ndarray, case: Optional[dict]) -> tuple[float, dict]:
        self.next_request(tracer)
        t0 = time.perf_counter()
        with tracer.span("equilibrium.pooling"):
            outcome = equilibrium.solve_pooling(params)
        with tracer.span("oracle.grid_argmax"):
            grid_G = oracle.grid_argmax(params, Quality.G)
        with tracer.span("oracle.grid_argmax"):
            grid_B = oracle.grid_argmax(params, Quality.B)
        with tracer.span("oracle.enumeration"):
            enumerated = oracle.demand_by_enumeration(params, quality, prices)
        report = None
        if case is not None:
            with tracer.span("oracle.sim"):
                report = oracle.simulate_market(
                    case_params(case), Quality(case["quality"]), case["price"],
                    draws=case["draws"], seed=case["seed"],
                )
            if tracer.active:
                tracer.counts["oracle.sim_draws"] += case["draws"]
        elapsed = time.perf_counter() - t0
        return elapsed, {
            "params": params, "quality": quality, "prices": prices, "outcome": outcome,
            "grid_G": grid_G, "grid_B": grid_B, "enumerated": enumerated,
            "case": case, "report": report,
        }

    def first_item(self, tracer: Tracer) -> PassResult:
        points, _ = audit_points(self.seed, 0)
        elapsed, out = self._audit(tracer, *points[0], None)
        return PassResult(items=1, latencies=[("point", elapsed)], outputs=[out])

    def run_pass(self, tracer: Tracer) -> PassResult:
        points, sim_at = audit_points(self.seed, self.passes)
        self.passes += 1
        result = PassResult(items=len(points))
        for k, point in enumerate(points):
            case = None
            if k == sim_at:
                case = self.cases[self.case_order[self.sims % len(self.cases)]]
                self.sims += 1
            elapsed, out = self._audit(tracer, *point, case)
            result.latencies.append(("point", elapsed))
            result.outputs.append(out)
        return result

    def check(self, result: PassResult) -> int:
        return sum(0 if point_ok(out) else 1 for out in result.outputs)


def case_params(case: dict) -> ModelParams:
    return ModelParams(h=case["h"], lam=case["lambda"], v_B=case["v_B"])


def point_ok(out: dict) -> bool:
    """Solver against oracle at one audited point."""
    params, outcome = out["params"], out["outcome"]
    price_G, _ = out["grid_G"]
    _, profit_B = out["grid_B"]
    if outcome.kind == "pooling":
        # The grid holds every candidate price bit-exactly, so the argmax
        # must be the solver's price itself, and the low type can do no
        # better on the grid than at the pooled price.
        if price_G != outcome.price or profit_B < outcome.profit_B - DEMAND_TOL:
            return False
    elif price_G != equilibrium.best_pooling_candidate(params).price:
        return False
    schedule = demand.build_wtp_schedule(params)
    for price, got in zip(out["prices"], out["enumerated"]):
        want = demand.expected_demand(schedule, float(price), out["quality"])
        if abs(got - want) > DEMAND_TOL:
            return False
    report, case = out["report"], out["case"]
    if report is None:
        return True
    if report.to_json() != case["report"]:
        return False
    analytic = oracle.demand_by_enumeration(case_params(case), Quality(case["quality"]), case["price"])
    gap = abs(report.est_demand - analytic)
    if report.se_demand == 0.0:
        return gap <= DEMAND_TOL
    return gap <= MC_SIGMAS * report.se_demand


WORKLOADS = {w.name: w for w in (RegionMap, ExtensionSweep, ThresholdTable, OracleAudit)}
