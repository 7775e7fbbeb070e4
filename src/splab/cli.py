"""splab command line: parameter sweeps, region maps, and verification.

Subcommands:
    solve       equilibrium at a single parameter point
    sweep       equilibrium at every point of a parameter grid
    regions     classification map (R1..R4 / mixed / none) over a grid
    compare     naive-vs-sophisticated profit curves along an h sweep
    thresholds  comparative-statics threshold dump at one parameter point
    verify      run the oracle verification suite (exit 3 on failure)

Parameters are given as flags (``--h``, ``--lambda``, ``--vb``, ``--gamma``,
``--mu0``), each either a scalar (``--h 0.7``) or an axis ``min:max:steps``
(``--h 0.5:1:51``, steps >= 2); a grid holds at most 10^6 points.  A JSON
config file (``--config``) may supply the same keys; explicit flags override
it.  Output goes to ``--out`` or stdout as CSV (default) or JSON; floats are
fixed at 12 significant digits so identical runs are byte-identical.

Examples:
    splab solve --h 0.7 --lambda 1 --vb 0.1
    splab regions --h 0.5:1:51 --lambda 0:1:51 --vb 0.1 --out map.csv
    splab compare --h 0.5:1:501 --vb 0.1 --format json
    splab thresholds --h 0.7 --lambda 0.3 --vb 0.1
    splab verify --seed 0 --draws 200000
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import astuple, fields
from typing import Iterator, Optional, Sequence

import numpy as np

from .demand import build_wtp_schedule, expected_demand
from .equilibrium import (
    ThresholdSet,
    _argmax_level,
    _level_profit_G,
    classify_equilibrium,
    compare_markets,
    solve_pooling,
    thresholds,
)
from .model import (
    ModelParams,
    ParameterError,
    Quality,
    UnsupportedVariantError,
)
from .oracle import (
    bisect_threshold,
    check_no_separation,
    demand_by_enumeration,
    grid_argmax,
    simulate_market,
)


class UsageError(Exception):
    """Bad flags, config, or axis syntax; maps to exit code 2."""


#: The grid axes, in ModelParams' field order.
AXIS_ORDER = ("h", "lambda", "v_B", "gamma", "mu0")
AXIS_DEFAULTS = {"lambda": 0.0, "v_B": 0.1, "gamma": 0.5, "mu0": 0.5}
CONFIG_KEYS = set(AXIS_ORDER) | {"format", "out"}
#: Seeded points at which `verify` compares the threshold closed forms with
#: bisection on the ladder.
THRESHOLD_POINTS = 8
#: Largest grid (product of the axis step counts) a command will build; 4x
#: the 501 x 501 maps the tool is meant for.
MAX_GRID_POINTS = 10**6
#: Largest `verify --seed`: the Monte-Carlo check seeds its runs with
#: seed + 0..5, and a Philox key must stay below 2**128.
MAX_VERIFY_SEED = 2**128 - 6

SOLVE_COLUMNS = (
    *AXIS_ORDER,
    "kind", "price", "low_price", "alpha",
    "profit_G", "profit_B", "region", "candidate_level",
)
REGION_COLUMNS = (*AXIS_ORDER, "classification", "price", "profit_G", "profit_B")
COMPARE_COLUMNS = (
    "h", "profit_G_naive", "profit_G_soph", "profit_B_naive", "profit_B_soph",
)
THRESHOLD_COLUMNS = ("h", "lambda", "v_B", *(f.name for f in fields(ThresholdSet)))


def fmt(value) -> str:
    """Fixed 12-significant-digit float formatting; None becomes ''.

    The only ints in a row are candidate levels 1..5, which print the same
    through a float.
    """
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def _json_value(value):
    """JSON cell: floats rounded to the same 12 digits the CSV prints."""
    if value is None or isinstance(value, (str, int)):
        return value
    return float(format(float(value), ".12g"))


def parse_axis(raw, name: str) -> tuple[float, float, int]:
    """A scalar or a 'min:max:steps' range, as (min, max, steps).

    A scalar v is (v, v, 1).  Nothing is allocated here, so the grid size
    can be bounded before any axis is built.
    """
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw), float(raw), 1
    text = str(raw).strip()
    if ":" not in text:
        try:
            value = float(text)
            return value, value, 1
        except ValueError as exc:
            raise UsageError(f"cannot parse --{name} value {text!r}") from exc
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name} range must be min:max:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--{name} range must be min:max:steps, got {text!r}") from exc
    if steps < 2:
        raise UsageError(f"--{name}: swept axis needs steps >= 2, got {steps}")
    if not lo < hi:
        raise UsageError(f"--{name}: range needs min < max, got {text!r}")
    return lo, hi, steps


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    unknown = set(config) - CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    out = config.get("out")
    if out is not None and not isinstance(out, str):
        raise UsageError(f"config out must be a file name, got {out!r}")
    return config


def _resolve_axes(args, config: dict) -> dict[str, list[float]]:
    """Merge flags over config over defaults into per-axis value lists."""
    flag_names = {"h": "h", "lambda": "lam", "v_B": "vb", "gamma": "gamma", "mu0": "mu0"}
    specs: dict[str, tuple[float, float, int]] = {}
    for axis in AXIS_ORDER:
        raw = getattr(args, flag_names[axis])
        if raw is None:
            raw = config.get(axis)
        if raw is None:
            if axis == "h":
                raise UsageError("--h is required (scalar or min:max:steps)")
            raw = AXIS_DEFAULTS[axis]
        specs[axis] = parse_axis(raw, axis)
    size = math.prod(steps for _, _, steps in specs.values())
    if size > MAX_GRID_POINTS:
        raise UsageError(f"grid has {size} points; at most {MAX_GRID_POINTS} allowed")
    return {
        axis: [float(v) for v in np.linspace(lo, hi, steps)]
        for axis, (lo, hi, steps) in specs.items()
    }


def _grid(axes: dict[str, list[float]]) -> Iterator[tuple[tuple[float, ...], ModelParams]]:
    """Each grid point's axis values, in AXIS_ORDER, with its ModelParams."""
    for values in itertools.product(*(axes[a] for a in AXIS_ORDER)):
        yield values, ModelParams(*values)


def _solve_rows(axes: dict[str, list[float]]) -> list[tuple]:
    rows = []
    for values, params in _grid(axes):
        _, out = classify_equilibrium(params)
        rows.append((
            *values, out.kind, out.price, out.low_price, out.alpha,
            out.profit_G, out.profit_B, out.region, out.candidate_level,
        ))
    return rows


def _region_rows(axes: dict[str, list[float]]) -> list[tuple]:
    rows = []
    for values, params in _grid(axes):
        label, out = classify_equilibrium(params)
        rows.append((*values, label, out.price, out.profit_G, out.profit_B))
    return rows


def _compare_rows(axes: dict[str, list[float]]) -> list[tuple]:
    for fixed in ("gamma", "mu0"):
        if len(axes[fixed]) != 1:
            raise UsageError(f"compare does not sweep --{fixed}")
    if len(axes["v_B"]) != 1:
        raise UsageError("compare needs a scalar --vb")
    gamma, mu0, v_B = axes["gamma"][0], axes["mu0"][0], axes["v_B"][0]
    rows = []
    for h in axes["h"]:
        naive = ModelParams(h=h, lam=0.0, v_B=v_B, gamma=gamma, mu0=mu0)
        soph = ModelParams(h=h, lam=1.0, v_B=v_B, gamma=gamma, mu0=mu0)
        report = compare_markets(naive, soph)
        naive_out, soph_out = report.naive, report.sophisticated
        rows.append(
            (h, naive_out.profit_G, soph_out.profit_G, naive_out.profit_B, soph_out.profit_B)
        )
    return rows


def _threshold_rows(axes: dict[str, list[float]]) -> list[tuple]:
    for axis in AXIS_ORDER:
        if len(axes[axis]) != 1:
            raise UsageError("thresholds takes scalar parameters only")
    values, params = next(_grid(axes))
    return [(*values[:3], *astuple(thresholds(params)))]


def _write_rows(rows: Sequence[tuple], columns: Sequence[str], args) -> None:
    """Write rows, tuples in the order of `columns`, as CSV or JSON."""
    if args.out:
        try:
            target = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc}") from exc
    else:
        target = contextlib.nullcontext(sys.stdout)
    with target as fh:
        if (args.format or "csv") == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([fmt(value) for value in row] for row in rows)
        else:
            payload = [
                {col: _json_value(value) for col, value in zip(columns, row)} for row in rows
            ]
            fh.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Verification suite (the `verify` subcommand).
# ---------------------------------------------------------------------------


def _random_base_params(rng: np.random.Generator) -> ModelParams:
    return ModelParams(
        h=float(rng.uniform(0.5, 1.0)),
        lam=float(rng.uniform(0.0, 1.0)),
        v_B=float(rng.uniform(0.0, 0.95)),
    )


def _random_naive_params(rng: np.random.Generator) -> ModelParams:
    """A fully naive market (lam = 0) with a free precision mix and prior."""
    return ModelParams(
        h=float(rng.uniform(0.5, 1.0)),
        lam=0.0,
        v_B=float(rng.uniform(0.0, 0.95)),
        gamma=float(rng.uniform(0.01, 0.99)),
        mu0=float(rng.uniform(0.0, 1.0)),
    )


def _check_oracle_agreement(rng: np.random.Generator) -> tuple[bool, str]:
    mismatches = 0
    checked = 0
    points = [_random_base_params(rng) for _ in range(200)]
    points += [_random_naive_params(rng) for _ in range(100)]
    for params in points:
        out = solve_pooling(params)
        if out.kind != "pooling":
            continue
        checked += 1
        price, _ = grid_argmax(params, Quality.G)
        if price != out.price:
            mismatches += 1
    return mismatches == 0, (
        f"{checked} pooling points incl. naive-market gamma/mu0, "
        f"{mismatches} price mismatches"
    )


def _check_piecewise_identity(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(2000):
        params = _random_base_params(rng)
        schedule = build_wtp_schedule(params)
        for quality in (Quality.G, Quality.B):
            prices = rng.uniform(0.0, 1.0, size=5)
            enumerated = demand_by_enumeration(params, quality, prices)
            for p, demand in zip(prices.tolist(), enumerated.tolist()):
                profit = p * expected_demand(schedule, p, quality)
                worst = max(worst, abs(profit - p * demand))
    return worst <= 1e-12, f"max |piecewise - p*enumerated demand| = {worst:.3g}"


def _check_no_separation(rng: np.random.Generator) -> tuple[bool, str]:
    # Draw every point before checking any, so that a failure leaves the
    # shared stream where a passing run leaves it for the later checks.
    points = [_random_base_params(rng) for _ in range(20)]
    worst = float("inf")
    for params in points:
        report = check_no_separation(params)
        if report.separation_possible:
            return False, f"separation witness failed at {params.to_dict()}"
        worst = min(worst, report.min_margin)
    return True, f"min margin of the breaking deviations = {worst:.3g}"


def _bisected_level_boundary(lam: float, v_B: float, max_level: int) -> float:
    """Where the ladder's argmax level leaves 1..max_level, by bisection on h.

    The argmax at h = 0.5 is level 1; 1.0 when it is still at or below
    max_level at h = 1.
    """
    if _argmax_level(1.0, lam, v_B) <= max_level:
        return 1.0
    lo, hi = 0.5, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _argmax_level(mid, lam, v_B) <= max_level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisection_gaps(params: ModelParams) -> list[float]:
    """|thresholds() - bisection on the ladder| for the fields that have a
    bisection route independent of the profit polynomials."""
    ts = thresholds(params)
    lam, v = params.lam, params.v_B
    gaps = [
        abs(ts.h_hat1 - _bisected_level_boundary(lam, v, 1)),
        abs(ts.h_star - _bisected_level_boundary(lam, v, 2)),
    ]
    if ts.h_hat3 is not None:
        gaps.append(abs(ts.h_hat3 - _bisected_level_boundary(lam, v, 3)))
    lambda_hat2 = bisect_threshold(
        lambda x: _level_profit_G(1.0, x, v, 3) - _level_profit_G(1.0, x, v, 4), (0.0, 1.0)
    )
    h_underline = bisect_threshold(
        lambda h: _level_profit_G(h, 0.0, v, 2) - (1.0 + h) * (1.0 + v) / 4.0, (0.5, 1.0)
    )
    h_overline = bisect_threshold(
        lambda h: 4.0 * (1.0 + h) * (1.0 + v)
        - (1.0 + 2.0 * h) * (1.0 + 2.0 * h + v * (3.0 - 2.0 * h)),
        (0.5, 1.0),
    )
    for got, want in (
        (ts.lambda_hat2, lambda_hat2),
        (ts.h_underline, h_underline),
        (ts.h_overline, h_overline),
    ):
        if (got is None) != (want is None):
            gaps.append(math.inf)
        elif got is not None:
            gaps.append(abs(got - want))
    return gaps


def _check_threshold_certificates(rng: np.random.Generator) -> tuple[bool, str]:
    params = ModelParams(h=0.7, lam=0.3, v_B=0.1)
    ts = thresholds(params)
    failures = []

    def tie_gap(value: Optional[float], lam: float, low: int, high: int, name: str):
        if value is None:
            return
        gap = abs(
            _level_profit_G(value, lam, params.v_B, low)
            - _level_profit_G(value, lam, params.v_B, high)
        )
        if gap > 1e-12:
            failures.append(f"{name}: residual {gap:.3g}")

    # Region boundaries at this lambda tie adjacent optimal levels.
    tie_gap(ts.h_hat1, params.lam, 1, 2, "h_hat1")
    tie_gap(ts.h_hat2, params.lam, 2, 3, "h_hat2")
    tie_gap(ts.h_hat3, params.lam, 3, 4, "h_hat3")
    if ts.lambda_bar is not None and not 0.0 <= ts.lambda_bar <= 1.0:
        failures.append(f"lambda_bar out of range: {ts.lambda_bar}")
    star_soph = thresholds(ModelParams(h=0.7, lam=1.0, v_B=params.v_B)).h_star
    star_naive = thresholds(ModelParams(h=0.7, lam=0.0, v_B=params.v_B)).h_star
    order = [0.5, star_soph, ts.h_underline, star_naive, ts.h_overline, 1.0]
    if any(v is None for v in order) or any(
        a > b + 1e-12 for a, b in zip(order, order[1:])
    ):
        failures.append(f"threshold ordering violated: {order}")
    # The closed forms against bisection on the ladder at seeded points.
    worst = max(
        max(_bisection_gaps(_random_base_params(rng))) for _ in range(THRESHOLD_POINTS)
    )
    gap = f"max |closed form - bisection| = {worst:.3g} over {THRESHOLD_POINTS} seeded points"
    if not worst <= 1e-9:
        failures.append(gap)
    if failures:
        return False, "; ".join(failures)
    return True, f"{gap}; tie residuals <= 1e-12 and ordering holds at v_B=0.1"


def _check_monte_carlo(rng: np.random.Generator, draws: int, seed: int) -> tuple[bool, str]:
    worst_sigma = 0.0
    for k in range(6):
        params = _random_base_params(rng)
        quality = Quality.G if k % 2 == 0 else Quality.B
        price = float(rng.uniform(0.0, 1.0))
        report = simulate_market(params, quality, price, draws=draws, seed=seed + k)
        analytic = float(demand_by_enumeration(params, quality, price))
        gap = abs(report.est_demand - analytic)
        if report.se_demand == 0.0:
            # Degenerate cell (all draws buy or none do): analytic value may
            # still carry float-summation dust, so allow a strict tolerance.
            if gap > 1e-12:
                return False, f"zero-variance cell missed analytic demand by {gap:.3g}"
            continue
        worst_sigma = max(worst_sigma, gap / report.se_demand)
        twin = simulate_market(params, quality, price, draws=draws, seed=seed + k)
        if twin.to_json() != report.to_json():
            return False, "identical seeds produced different reports"
    return worst_sigma <= 4.0, f"max |error|/SE = {worst_sigma:.2f} over 6 runs"


def _run_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    draws = args.draws if args.draws is not None else 200000
    if draws < 1:
        raise UsageError(f"--draws must be >= 1, got {draws}")
    if not 0 <= seed <= MAX_VERIFY_SEED:
        raise UsageError(f"--seed must lie in [0, 2**128 - 6], got {seed}")
    rng = np.random.default_rng(seed)
    # Its own stream, so the other checks draw the points they always drew.
    thresholds_rng = np.random.default_rng([seed, 1])
    checks = [
        ("oracle-vs-solver price agreement", lambda: _check_oracle_agreement(rng)),
        ("piecewise profit identity", lambda: _check_piecewise_identity(rng)),
        ("no-separation witnesses", lambda: _check_no_separation(rng)),
        ("threshold certificates", lambda: _check_threshold_certificates(thresholds_rng)),
        ("Monte-Carlo demand", lambda: _check_monte_carlo(rng, draws, seed)),
    ]
    all_ok = True
    for name, runner in checks:
        ok, detail = runner()
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    print("verification " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splab",
        description="equilibrium solver and sweep tool for the signal-pricing market",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "equilibrium at one parameter point"),
        ("sweep", "equilibria over a parameter grid"),
        ("regions", "region classification map over a grid"),
        ("compare", "naive vs sophisticated profit curves over h"),
        ("thresholds", "threshold dump at one parameter point"),
        ("verify", "run the oracle verification suite"),
    ):
        if name == "verify":
            # No prefix matching, so --h is refused rather than read as --help.
            p = sub.add_parser(name, help=helptext, allow_abbrev=False)
            p.add_argument(
                "--seed", type=int, help="seed for the verification suite, 0 to 2**128 - 6"
            )
            p.add_argument("--draws", type=int, help="Monte-Carlo draws per check")
            continue
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON file with parameter/output keys")
        p.add_argument("--h", dest="h", help="precision: scalar or min:max:steps")
        p.add_argument("--lambda", dest="lam", help="sophisticated share: scalar or range")
        p.add_argument("--vb", dest="vb", help="bad-quality value: scalar or range")
        p.add_argument("--gamma", dest="gamma", help="high-precision share: scalar or range")
        p.add_argument("--mu0", dest="mu0", help="prior Pr(G): scalar or range")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    return parser


def _run_command(args) -> int:
    config = _load_config(args.config)
    if args.format is None:
        config_format = config.get("format")
        if config_format is not None:
            if config_format not in ("csv", "json"):
                raise UsageError(f"config format must be csv or json, got {config_format!r}")
            args.format = config_format
    if args.out is None:
        args.out = config.get("out")
    axes = _resolve_axes(args, config)
    if args.command == "solve":
        if any(len(values) > 1 for values in axes.values()):
            raise UsageError("solve takes scalar parameters; use sweep for grids")
        rows, columns = _solve_rows(axes), SOLVE_COLUMNS
    elif args.command == "sweep":
        rows, columns = _solve_rows(axes), SOLVE_COLUMNS
    elif args.command == "regions":
        rows, columns = _region_rows(axes), REGION_COLUMNS
    elif args.command == "compare":
        # The default lambda is indistinguishable from an explicit one in
        # `axes`, so the flag and the config key are checked here.
        if args.lam is not None or config.get("lambda") is not None:
            raise UsageError(
                "compare does not take --lambda; it compares lambda=0 with lambda=1"
            )
        rows, columns = _compare_rows(axes), COMPARE_COLUMNS
    else:  # thresholds
        rows, columns = _threshold_rows(axes), THRESHOLD_COLUMNS
    _write_rows(rows, columns, args)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run_verify(args) if args.command == "verify" else _run_command(args)
        sys.stdout.flush()
        return code
    except (UsageError, ParameterError, UnsupportedVariantError) as exc:
        print(f"splab: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`): an I/O error.  Point
        # stdout at the null device so the interpreter's last flush of the
        # unwritten buffer cannot raise again on the way out.
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
