"""Independent verification layer: grid search, simulation, bisection.

Nothing in this module touches the WtpSchedule machinery.  Demand is
recomputed by brute-force enumeration of the eight (consumer type, signal)
cells straight from the model primitives, and by Monte-Carlo sampling of
individual consumers, so agreement with the analytic solver is evidence
rather than tautology.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    L,
    SIGNALS,
    ConsumerType,
    ModelParams,
    ParameterError,
    Precision,
    Quality,
    Signal,
    Valence,
    posterior_with_prior,
    signal_distribution,
    wtp_from_posterior,
)


def consumer_cells(params: ModelParams, quality: Quality) -> list[tuple[float, float]]:
    """(probability, WTP) of each of the eight population cells.

    A cell is one consumer type paired with one signal; its probability is
    the type share times Pr(signal | quality), and its WTP follows from that
    type's posterior.  This is the raw object every oracle computation sums
    over.
    """
    cells: list[tuple[float, float]] = []
    for consumer in (ConsumerType.NAIVE, ConsumerType.SOPHISTICATED):
        share = params.lam if consumer is ConsumerType.SOPHISTICATED else 1.0 - params.lam
        dist = signal_distribution(params, quality)
        for signal in SIGNALS:
            mu = posterior_with_prior(params, consumer, signal)
            cells.append((share * dist[signal], wtp_from_posterior(mu, params)))
    return cells


def demand_by_enumeration(params: ModelParams, quality: Quality, price):
    """Expected demand at `price` by direct summation over the eight cells.

    `price` may be a scalar or an ndarray; consumers buy when WTP >= price.
    """
    prices = np.asarray(price, dtype=float)
    if np.any(prices < 0.0) or np.any(prices > 1.0):
        raise ParameterError("price must lie in [0, 1]")
    total = np.zeros_like(prices)
    for prob, wtp in consumer_cells(params, quality):
        total += prob * (prices <= wtp)
    if np.ndim(price) == 0:
        return float(total)
    return total


@dataclass(frozen=True)
class GridSpec:
    """Price grid for brute-force profit maximization.

    The effective grid is the uniform mesh *unioned with* the candidate
    prices (the five WTP values and v_B), so the analytic argmax is always a
    grid member bit-exactly and agreement checks can demand equality, not
    closeness.
    """

    price_min: float = 0.0
    price_max: float = 1.0
    points: int = 100001

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.price_min)
            and math.isfinite(self.price_max)
            and self.price_min < self.price_max
        ):
            raise ParameterError("grid needs finite price_min < price_max")
        if not (0.0 <= self.price_min <= 1.0 and 0.0 <= self.price_max <= 1.0):
            raise ParameterError("grid prices must lie in [0, 1]")
        if self.points < 2:
            raise ParameterError("grid needs at least 2 points")


def _grid_prices(params: ModelParams, quality: Quality, grid: GridSpec) -> np.ndarray:
    mesh = np.linspace(grid.price_min, grid.price_max, grid.points)
    candidates = {wtp for _, wtp in consumer_cells(params, quality)}
    candidates.add(params.v_B)
    in_range = [c for c in candidates if grid.price_min <= c <= grid.price_max]
    return np.union1d(mesh, np.array(in_range, dtype=float))


def grid_argmax(
    params: ModelParams, quality: Quality, grid: GridSpec | None = None
) -> tuple[float, float]:
    """Profit-maximizing price over the grid and the profit it earns.

    Ties break toward the lower price (np.argmax returns the first maximum
    of an ascending grid).
    """
    if grid is None:
        grid = GridSpec()
    prices = _grid_prices(params, quality, grid)
    profits = prices * demand_by_enumeration(params, quality, prices)
    i = int(np.argmax(profits))
    return float(prices[i]), float(profits[i])


@dataclass(frozen=True)
class SimReport:
    """Monte-Carlo demand estimate with its sampling uncertainty."""

    draws: int
    seed: int
    est_demand: float
    se_demand: float
    est_profit: float
    se_profit: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


_BATCH = 1 << 20  # consumers simulated per vectorized batch
_UNIFORMS_PER_DRAW = 3  # type, precision, valence


def _batch_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms for draws [start, start+count), shape (count, 3).

    Philox is counter-based: advancing the stream to the batch offset makes
    the result independent of how the total draw count is partitioned, so a
    seed fully determines the simulation no matter the batching.
    """
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * _UNIFORMS_PER_DRAW)
    return np.random.Generator(bitgen).random((count, _UNIFORMS_PER_DRAW))


def simulate_market(
    params: ModelParams, quality: Quality, price: float, draws: int, seed: int
) -> SimReport:
    """Estimate demand at `price` by simulating individual consumers.

    Each draw samples a consumer type (Bernoulli lam), a signal precision
    (Bernoulli gamma), and a valence (correct with probability equal to the
    precision), then applies that type's posterior and the buy-at-or-below-
    WTP rule.  Returns the mean and standard error (sample std / sqrt(n)).
    """
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    if not 0.0 <= price <= 1.0:
        raise ParameterError(f"price must lie in [0, 1], got {price}")

    # WTP lookup indexed by soph*4 + high*2 + good (bit-identical to the
    # cell table used by the enumeration oracle).
    wtp_table = np.empty(8)
    for soph in (0, 1):
        consumer = ConsumerType.SOPHISTICATED if soph else ConsumerType.NAIVE
        for high in (0, 1):
            prec = Precision.HIGH if high else Precision.LOW
            for good in (0, 1):
                val = Valence.GOOD if good else Valence.BAD
                mu = posterior_with_prior(params, consumer, Signal(val, prec))
                wtp_table[soph * 4 + high * 2 + good] = wtp_from_posterior(mu, params)

    buys = 0
    done = 0
    while done < draws:
        count = min(_BATCH, draws - done)
        u = _batch_uniforms(seed, done, count)
        soph = u[:, 0] < params.lam
        high = u[:, 1] < params.gamma
        w = np.where(high, params.h, L)
        match = u[:, 2] < w
        # The valence agrees with the true quality exactly when it "matches".
        good = match if quality is Quality.G else ~match
        idx = soph.astype(np.intp) * 4 + high.astype(np.intp) * 2 + good.astype(np.intp)
        buys += int(np.count_nonzero(wtp_table[idx] >= price))
        done += count

    mean = buys / draws
    if draws > 1:
        # Sample variance of a 0/1 indicator: k(1-m)/(n-1).
        var = buys * (1.0 - mean) / (draws - 1)
        se = math.sqrt(var / draws)
    else:
        se = 0.0
    return SimReport(
        draws=draws,
        seed=seed,
        est_demand=mean,
        se_demand=se,
        est_profit=price * mean,
        se_profit=price * se,
    )


@dataclass(frozen=True)
class SeparationReport:
    """Witness that no separating equilibrium survives a profitable deviation.

    In a candidate separating profile the high type's price p_G reveals
    quality and the low type earns its honest revealing profit v_B.  For
    each revealing price in `prices` (all above v_B) the low type mimics
    p_G: every consumer then believes the product is good, and
    mimic_profits holds what it earns.  A revealing price at or below v_B
    is broken by the high type instead, whose best off-path price under
    signal-based beliefs earns more than v_B.  min_margin is the smallest
    gain of the breaking deviation over the profit it gives up.
    """

    v_B: float
    prices: tuple[float, ...]
    mimic_profits: tuple[float, ...]
    honest_profit: float
    min_margin: float
    separation_possible: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def check_no_separation(params: ModelParams) -> SeparationReport:
    """Evaluate the deviation that breaks each candidate separating profile.

    Revealing prices p_G on 101 even steps of (v_B, 1]: the low type's mimic
    profit, from the eight cells with every belief set to 1, must strictly
    beat v_B.  Revealing prices p_G <= v_B: the high type's best deviation
    under signal-based beliefs (grid_argmax) must strictly beat p_G, and so
    beat v_B, the largest such price.  Separation is ruled out when every
    one of these deviations pays.
    """
    v = params.v_B
    # min: the top price can round one ulp past V_G = 1, where nobody buys.
    prices = tuple(min(v + (1.0 - v) * k / 101, 1.0) for k in range(1, 102))
    believing = [
        (prob, wtp_from_posterior(1.0, params))
        for prob, _ in consumer_cells(params, Quality.B)
    ]
    mimic = tuple(p * sum(prob for prob, wtp in believing if p <= wtp) for p in prices)
    _, deviation = grid_argmax(params, Quality.G)
    margins = [m - v for m in mimic] + [deviation - v]
    return SeparationReport(
        v_B=v,
        prices=prices,
        mimic_profits=mimic,
        honest_profit=v,
        min_margin=min(margins),
        separation_possible=any(m <= 0.0 for m in margins),
    )


def bisect_threshold(
    difference: Callable[[float], float],
    bracket: Sequence[float],
    tol: float = 1e-10,
) -> Optional[float]:
    """Root of a monotone scalar function by bisection.

    Returns None when the difference does not change sign over the bracket
    (the threshold is absent).  Raises ParameterError for a degenerate
    bracket or when a 3-point sample shows the function is not monotone --
    that means the caller's defining equation is wrong, not that the
    threshold is missing.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ParameterError(f"bracket must satisfy a < b, got ({a}, {b})")
    fa = difference(a)
    fb = difference(b)
    fm = difference(0.5 * (a + b))
    if not (fa <= fm <= fb or fa >= fm >= fb):
        raise ParameterError(
            "difference is not monotone on the bracket "
            f"(f({a})={fa}, f(mid)={fm}, f({b})={fb})"
        )
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        return None
    while b - a > tol:
        mid = 0.5 * (a + b)
        fmid = difference(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (fa > 0.0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
