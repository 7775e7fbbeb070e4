"""Independent verification layer: grid search, simulation, bisection.

Nothing in this module touches the WtpSchedule machinery.  Demand is
recomputed by brute-force enumeration of the eight (consumer type, signal)
cells straight from the model primitives, and by Monte-Carlo sampling of
individual consumers, so agreement with the analytic solver is evidence
rather than tautology.

The enumeration sums the cells once per call into a step table: the
sorted distinct WTPs and the demand on each step between them.  Prices
are looked up in that table, and the grid argmax scores every point of a
cached uniform mesh, and separately every candidate price in range,
against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    L,
    SIGNALS,
    ConsumerType,
    ModelParams,
    ParameterError,
    Quality,
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
    dist = signal_distribution(params, quality)
    cells: list[tuple[float, float]] = []
    for consumer in (ConsumerType.NAIVE, ConsumerType.SOPHISTICATED):
        share = params.lam if consumer is ConsumerType.SOPHISTICATED else 1.0 - params.lam
        for signal in SIGNALS:
            mu = posterior_with_prior(params, consumer, signal)
            cells.append((share * dist[signal], wtp_from_posterior(mu, params)))
    return cells


def _demand_steps(params: ModelParams, quality: Quality) -> tuple[np.ndarray, np.ndarray]:
    """Demand as a step function: the sorted distinct WTPs and each step's demand.

    steps[j] is the demand at every price in (wtps[j-1], wtps[j]], and the
    last entry, 0.0, the demand above the top WTP.  Each step adds the
    probabilities of the cells that cover it in cell order, so it is the
    float that summing the eight cells one by one at such a price gives
    (an explicit loop: `sum` compensates its rounding from Python 3.12).
    """
    cells = consumer_cells(params, quality)
    wtps = sorted({wtp for _, wtp in cells})
    steps = []
    for step_wtp in wtps:
        total = 0.0
        for prob, wtp in cells:
            if step_wtp <= wtp:
                total += prob
        steps.append(total)
    steps.append(0.0)
    return np.array(wtps), np.array(steps)


def demand_by_enumeration(params: ModelParams, quality: Quality, price):
    """Expected demand at `price`, summed over the eight cells.

    `price` may be a scalar or an ndarray with every entry in [0, 1];
    consumers buy when WTP >= price, so each price reads the step of the
    lowest WTP at or above it.
    """
    prices = np.asarray(price, dtype=float)
    if not np.all((prices >= 0.0) & (prices <= 1.0)):
        raise ParameterError("price must lie in [0, 1]")
    wtps, steps = _demand_steps(params, quality)
    total = steps[np.searchsorted(wtps, prices, side="left")]
    if np.ndim(price) == 0:
        return float(total)
    return total


def _is_int(value) -> bool:
    """True for a Python or numpy integer; False for bool, floats and the rest."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GridSpec:
    """Price grid for brute-force profit maximization.

    The effective grid is the uniform mesh together with the candidate
    prices (the distinct WTP values and v_B) that lie in its range, so the
    analytic argmax is always a grid member bit-exactly and agreement checks
    can demand equality, not closeness.
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
        if not _is_int(self.points):
            raise ParameterError(f"grid points must be an int, got {self.points!r}")
        if self.points < 2:
            raise ParameterError("grid needs at least 2 points")


@lru_cache(maxsize=8)
def _mesh(grid: GridSpec) -> np.ndarray:
    """The uniform mesh of `grid`, built once and shared read-only."""
    mesh = np.linspace(grid.price_min, grid.price_max, grid.points)
    mesh.flags.writeable = False
    return mesh


def _grid_prices(wtps: np.ndarray, v_B: float, grid: GridSpec) -> np.ndarray:
    """The candidate prices (distinct WTPs and v_B) inside the grid's range, ascending."""
    prices = np.unique(np.append(wtps, v_B))
    return prices[(prices >= grid.price_min) & (prices <= grid.price_max)]


def _first_max(prices: np.ndarray, wtps: np.ndarray, steps: np.ndarray) -> tuple[float, float]:
    """Lowest of the ascending `prices` that earns the most, and that profit.

    The prices at or below wtps[0] lie on step 0, those in (wtps[0],
    wtps[1]] on step 1, and so on, so each step's demand is repeated over
    its run of prices instead of being looked up price by price.
    """
    ends = np.searchsorted(prices, wtps, side="right")
    counts = np.diff(ends, prepend=0, append=prices.size)
    profits = prices * np.repeat(steps, counts)
    i = int(np.argmax(profits))
    return float(prices[i]), float(profits[i])


def grid_argmax(
    params: ModelParams, quality: Quality, grid: GridSpec | None = None
) -> tuple[float, float]:
    """Profit-maximizing price over the grid and the profit it earns.

    Every mesh point is scored, and so is every candidate price in range;
    ties break toward the lower price.
    """
    if grid is None:
        grid = GridSpec()
    wtps, steps = _demand_steps(params, quality)
    best = [_first_max(_mesh(grid), wtps, steps)]
    candidates = _grid_prices(wtps, params.v_B, grid)
    if candidates.size:
        best.append(_first_max(candidates, wtps, steps))
    return max(best, key=lambda scored: (scored[1], -scored[0]))


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
_SEED_LIMIT = 2**128  # Philox keys are 128-bit


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
    if not _is_int(draws) or draws < 1:
        raise ParameterError(f"draws must be an int >= 1, got {draws!r}")
    if not _is_int(seed) or not 0 <= seed < _SEED_LIMIT:
        raise ParameterError(f"seed must be an int in [0, 2**128), got {seed!r}")
    if not 0.0 <= price <= 1.0:
        raise ParameterError(f"price must lie in [0, 1], got {price}")

    # Whether each cell of the enumeration oracle's table buys: naive then
    # sophisticated, each over SIGNALS (good-high, bad-high, good-low,
    # bad-low), so a draw's cell is soph*4 + low*2 + bad.
    buys_in = np.array([wtp >= price for _, wtp in consumer_cells(params, quality)])
    good = quality is Quality.G

    buys = 0
    done = 0
    while done < draws:
        count = min(_BATCH, draws - done)
        u = _batch_uniforms(seed, done, count)
        soph = u[:, 0] < params.lam
        high = u[:, 1] < params.gamma
        # The valence is bad exactly when it misses a good product or
        # matches a bad one.
        bad = (u[:, 2] < np.where(high, params.h, L)) ^ good
        idx = (soph.view(np.uint8) << 2) | ((~high).view(np.uint8) << 1) | bad.view(np.uint8)
        buys += int(np.count_nonzero(buys_in[idx]))
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
