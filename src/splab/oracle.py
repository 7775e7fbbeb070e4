"""Independent verification layer: grid search, simulation, bisection.

Nothing in this module touches the WtpSchedule machinery.  Demand is
recomputed by brute-force enumeration of the eight (consumer type, signal)
cells straight from the model primitives, and by Monte-Carlo sampling of
individual consumers, so agreement with the analytic solver is evidence
rather than tautology.

The cells are summed once per parameter point into a cached table: the
eight cells' WTPs (the same under either quality), the sorted distinct
WTPs, and the demand on each step between them under G and under B.
`grid_argmax` for both qualities, `demand_by_enumeration`,
`simulate_market` and `check_no_separation` all read that one table, and
prices are looked up in its steps.  The grid argmax splits a cached uniform
mesh into runs, one per step.  On a run the demand is one number s >= 0
and IEEE rounding of p * s is monotone in p, so only each run's last
mesh price is scored; a search back from the winning run's last price,
doubling its step and then bisecting, finds the first mesh price that
rounds to the same profit.  The at most seven candidate prices in range
(the distinct WTPs and v_B) are scored one by one as Python floats, each
on the step that `bisect_left` finds, which is the step and the IEEE
product a mesh price there would get.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    L,
    ModelParams,
    ParameterError,
    Quality,
    Record,
    _bayes,
    w_bar,
    wtp_from_posterior,
)


class _CellTable(NamedTuple):
    """One parameter point's eight cells and its demand steps under G and B.

    A cell is one consumer type paired with one signal, naive then
    sophisticated, each after good-high, bad-high, good-low and bad-low
    news.  wtps holds the cells' WTPs in that order; they do not depend
    on quality.  masses[i] holds the cells' probabilities, the type share
    times Pr(signal | Q), under Q = G (i = 0) or B (i = 1).  levels are the
    sorted distinct WTPs.  steps[i][j] is the demand under that quality at
    every price in (levels[j-1], levels[j]], and the last entry, 0.0, the
    demand above the top WTP.  level_array and step_arrays hold levels and
    steps again as numpy arrays, for the readers that search or index them
    with arrays.  A cached table is shared by every caller, so it holds
    tuples and read-only arrays only.
    """

    wtps: tuple[float, ...]
    masses: tuple[tuple[float, ...], tuple[float, ...]]
    levels: tuple[float, ...]
    steps: tuple[tuple[float, ...], tuple[float, ...]]
    level_array: np.ndarray
    step_arrays: tuple[np.ndarray, np.ndarray]


def _build_table(params: ModelParams) -> _CellTable:
    """The cell table of `params`, straight from the model primitives.

    Each of the six distinct posteriors (naive after good and bad news,
    sophisticated after each signal) is `_bayes` on that signal's
    likelihoods, and its WTP is `wtp_from_posterior`.  Each step adds the
    masses of the cells that cover it in cell order, the float that summing
    the eight cells one by one at such a price gives (an explicit loop:
    `sum` compensates its rounding from Python 3.12).
    """
    h, lam, gamma, mu0 = params.h, params.lam, params.gamma, params.mu0
    wb = w_bar(params)
    naive_good = wtp_from_posterior(_bayes(mu0, wb, 1.0 - wb), params)
    naive_bad = wtp_from_posterior(_bayes(mu0, 1.0 - wb, wb), params)
    wtps = (
        naive_good,
        naive_bad,
        naive_good,
        naive_bad,
        wtp_from_posterior(_bayes(mu0, h, 1.0 - h), params),
        wtp_from_posterior(_bayes(mu0, 1.0 - h, h), params),
        wtp_from_posterior(_bayes(mu0, L, 1.0 - L), params),
        wtp_from_posterior(_bayes(mu0, 1.0 - L, L), params),
    )
    # Pr(signal | Q): the precision's probability times the chance that the
    # valence matches quality (w) or not (1 - w).  Under B good and bad news
    # trade places at each precision, so cell k of B is cell k ^ 1 of G.
    high, low = gamma, 1.0 - gamma
    given_G = (high * h, high * (1.0 - h), low * L, low * (1.0 - L))
    shares = (1.0 - lam, lam)  # naive, sophisticated
    masses_G = tuple([share * pr for share in shares for pr in given_G])
    masses_B = tuple([masses_G[k ^ 1] for k in range(8)])

    levels = tuple(sorted(set(wtps)))
    cells = tuple(zip(wtps, masses_G, masses_B))
    steps_G, steps_B = [], []
    for level in levels:
        total_G = total_B = 0.0
        for wtp, mass_G, mass_B in cells:
            if level <= wtp:
                total_G += mass_G
                total_B += mass_B
        steps_G.append(total_G)
        steps_B.append(total_B)
    steps_G.append(0.0)
    steps_B.append(0.0)
    # The arrays are views of one read-only buffer, cheaper to build than
    # three arrays.
    arrays = np.array((*levels, *steps_G, *steps_B))
    arrays.flags.writeable = False
    k = len(levels)
    return _CellTable(
        wtps,
        (masses_G, masses_B),
        levels,
        (tuple(steps_G), tuple(steps_B)),
        arrays[:k],
        (arrays[k : 2 * k + 1], arrays[2 * k + 1 :]),
    )


# One table per parameter point, shared by grid_argmax for both qualities,
# demand_by_enumeration, simulate_market and check_no_separation.
# ModelParams equates 0.0 and -0.0, so signed-zero twins share an entry,
# whose zero masses and zero WTPs carry the signs of the twin that filled
# it.  Those readers cannot show them: steps add masses to a 0.0 start,
# WTPs are compared, and a zero candidate price in grid_argmax is in range
# only when the mesh starts at a zero, which it ties and so never displaces.
# consumer_cells, which hands the cells out raw, builds its own table.
_cell_table = lru_cache(maxsize=32)(_build_table)


def _quality_index(quality: Quality) -> int:
    """0 for Q = G and 1 for Q = B, the index into a table's per-quality fields."""
    if quality is Quality.G:
        return 0
    if quality is Quality.B:
        return 1
    raise ParameterError(f"quality must be a Quality, got {quality!r}")


def consumer_cells(params: ModelParams, quality: Quality) -> list[tuple[float, float]]:
    """(probability, WTP) of each of the eight population cells.

    A cell is one consumer type paired with one signal: naive then
    sophisticated, each after good-high, bad-high, good-low and bad-low
    news.  Its probability is the type share times Pr(signal | quality),
    and its WTP is `wtp_from_posterior` of that type's posterior, so at
    v_B = 0 the WTP is the posterior itself.  This is the raw object every
    oracle computation sums over, read from a table built for `params`
    itself.
    """
    i = _quality_index(quality)
    table = _build_table(params)
    return list(zip(table.masses[i], table.wtps))


def demand_by_enumeration(params: ModelParams, quality: Quality, price):
    """Expected demand at `price`, summed over the eight cells.

    `price` may be a scalar or an array of any shape with every entry in
    [0, 1]: -0.0 is in, NaN is out, and an empty array gives an empty
    array.  Consumers buy when WTP >= price, so each price reads the step
    of the lowest WTP at or above it: one search of the table's level array
    and one lookup in its step array serve every price.  A Python or numpy
    scalar, or a 0-d array, gives a float.
    """
    prices = np.asarray(price, dtype=float)
    # A NaN makes either reduction NaN, which fails its comparison; the
    # initial values let an empty array pass.
    if not (
        np.minimum.reduce(prices, None, initial=0.0) >= 0.0
        and np.maximum.reduce(prices, None, initial=1.0) <= 1.0
    ):
        raise ParameterError("price must lie in [0, 1]")
    i = _quality_index(quality)
    table = _cell_table(params)
    total = table.step_arrays[i][table.level_array.searchsorted(prices, side="left")]
    if prices.ndim == 0:
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


def _grid_prices(wtps: Sequence[float], v_B: float, grid: GridSpec) -> list[float]:
    """The candidate prices (distinct WTPs and v_B) inside the grid's range, ascending."""
    lo, hi = grid.price_min, grid.price_max
    prices = [price for price in {*wtps, v_B} if lo <= price <= hi]
    prices.sort()
    return prices


def _first_max(
    prices: np.ndarray, levels: np.ndarray, steps: Sequence[float]
) -> tuple[float, float]:
    """Lowest of the ascending `prices` that earns the most, and that profit.

    The prices at or below levels[0] lie on step 0, those in (levels[0],
    levels[1]] on step 1, and so on, up to the run above the top level.  On
    a run every price sells the same demand s >= 0, and IEEE rounding of
    p * s is monotone in p, so the run earns its most at its last price.
    Only those last prices (at most seven) are scored; the earliest run with
    the strict maximum wins, as an argmax over every price would pick it.
    Rounding can tie several prices at the end of that run, so the search
    steps back from its last price, doubling the step while the product
    still equals the maximum, and bisects the last bracket for the first
    price that earns it.  Usually the price before the last already earns
    less, and that one price is all it reads.
    """
    ends = prices.searchsorted(levels, side="right").tolist()
    ends.append(len(prices))  # steps has one entry more than levels
    best_profit = -math.inf
    start = 0
    for end, step in zip(ends, steps):
        if start < end:
            profit = prices.item(end - 1) * step
            if profit > best_profit:
                best_start, best_end, best_step, best_profit = start, end, step, profit
        start = end

    # prices[last] earns the maximum, and so does every price from the
    # first one that earns it up to last.
    last, stride = best_end - 1, 1
    while last - stride >= best_start and prices.item(last - stride) * best_step == best_profit:
        last -= stride
        stride *= 2
    first = bisect_left(
        prices,
        best_profit,
        max(best_start, last - stride + 1),
        last,
        key=lambda price: float(price) * best_step,
    )
    return prices.item(first), best_profit


_DEFAULT_GRID = GridSpec()


def grid_argmax(
    params: ModelParams, quality: Quality, grid: GridSpec | None = None
) -> tuple[float, float]:
    """Profit-maximizing price over the grid and the profit it earns.

    The mesh's first maximum is found as if every mesh point were scored
    (see `_first_max`), and every candidate price in range is scored too;
    ties break toward the lower price.
    """
    if grid is None:
        grid = _DEFAULT_GRID
    i = _quality_index(quality)
    table = _cell_table(params)
    levels, steps = table.levels, table.steps[i]
    best_price, best_profit = _first_max(_mesh(grid), table.level_array, steps)
    for price in _grid_prices(levels, params.v_B, grid):
        # The step searchsorted(levels, price, side="left") picks.
        profit = price * steps[bisect_left(levels, price)]
        if profit > best_profit or (profit == best_profit and price < best_price):
            best_price, best_profit = price, profit
    return best_price, best_profit


@dataclass(frozen=True)
class SimReport(Record):
    """Monte-Carlo demand estimate with its sampling uncertainty."""

    draws: int
    seed: int
    est_demand: float
    se_demand: float
    est_profit: float
    se_profit: float


# Each run of _BATCH draws reads its own Philox stream, keyed by the seed and
# advanced by start * 3 counter blocks.  advance() skips blocks of four 64-bit
# outputs, not single uniforms, so batch b starts at uniform 12 * _BATCH * b and
# _BATCH is part of the stream layout: changing it changes every report above
# _BATCH draws.
_BATCH = 1 << 20
# Draws whose uniforms are held at once: a (2^16, 3) float64 buffer is 1.5 MB,
# small enough to stay in a 2 MB or larger L2 cache.  _BATCH is a multiple of
# it, so no chunk straddles two batches.
_CHUNK = 1 << 16
_UNIFORMS_PER_DRAW = 3  # type, precision, valence
_SEED_LIMIT = 2**128  # Philox keys are 128-bit


def simulate_market(
    params: ModelParams, quality: Quality, price: float, draws: int, seed: int
) -> SimReport:
    """Estimate demand at `price` by simulating individual consumers.

    Each draw samples a consumer type (Bernoulli lam), a signal precision
    (Bernoulli gamma), and a valence (correct with probability equal to the
    precision), then applies that type's posterior and the buy-at-or-below-
    WTP rule.  Returns the mean and standard error (sample std / sqrt(n)).
    `(seed, draws)` fixes the report.  The uniforms are drawn a chunk at a
    time into one reused buffer, so memory does not grow with `draws`.
    """
    if not _is_int(draws) or draws < 1:
        raise ParameterError(f"draws must be an int >= 1, got {draws!r}")
    if not _is_int(seed) or not 0 <= seed < _SEED_LIMIT:
        raise ParameterError(f"seed must be an int in [0, 2**128), got {seed!r}")
    good = _quality_index(quality) == 0
    if not 0.0 <= price <= 1.0:
        raise ParameterError(f"price must lie in [0, 1], got {price}")

    # Bit k is set when cell k of the enumeration oracle's table buys: naive
    # then sophisticated, each after good-high, bad-high, good-low and
    # bad-low news, so a draw's cell is soph*4 + low*2 + bad.
    wtps = _cell_table(params).wtps
    buyer_bits = np.uint8(sum(1 << k for k, wtp in enumerate(wtps) if wtp >= price))

    buffer = np.empty((min(_CHUNK, draws), _UNIFORMS_PER_DRAW))
    buys = 0
    for batch in range(0, draws, _BATCH):
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(batch * _UNIFORMS_PER_DRAW)
        generator = np.random.Generator(bitgen)
        for start in range(batch, min(batch + _BATCH, draws), _CHUNK):
            u = buffer[: min(_CHUNK, draws - start)]
            generator.random(out=u)
            soph = u[:, 0] < params.lam
            high = u[:, 1] < params.gamma
            # The valence is correct when u[:, 2] < (h if high else L).  As
            # L <= h, a draw under L is under both, which spares a per-draw
            # np.where (a branchy pass over a random mask, the slowest step).
            # It is bad exactly when it misses a good product or matches a
            # bad one.
            correct = (u[:, 2] < L) | (high & (u[:, 2] < params.h))
            bad = correct ^ good
            # numpy vectorises uint8 multiplies, not uint8 left shifts.
            idx = soph.view(np.uint8) * 4 | (~high).view(np.uint8) * 2 | bad.view(np.uint8)
            buys += int(np.count_nonzero((buyer_bits >> idx) & 1))

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
class SeparationReport(Record):
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


def check_no_separation(params: ModelParams) -> SeparationReport:
    """Evaluate the deviation that breaks each candidate separating profile.

    Revealing prices p_G on those of 101 even steps of (v_B, 1] that round
    above v_B (a few ulps below 1, some round down to v_B itself): the low
    type's mimic profit, from the eight cells with every belief set to 1,
    must strictly beat v_B.  A belief of 1 is a WTP of V_G = 1 >= p_G, so
    every cell buys and the mimic sells the low type's whole mass, the first
    step of its demand.  Revealing prices p_G <= v_B: the high type's best deviation
    under signal-based beliefs (grid_argmax) must strictly beat p_G, and so
    beat v_B, the largest such price.  Separation is ruled out when every
    one of these deviations pays.
    """
    v = params.v_B
    # min: the top price can round one ulp past V_G = 1, where nobody buys.
    even = (min(v + (1.0 - v) * k / 101, 1.0) for k in range(1, 102))
    prices = tuple(p for p in even if p > v)
    mass = _cell_table(params).steps[_quality_index(Quality.B)][0]
    mimic = tuple(p * mass for p in prices)
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


#: Bracket width at which `bisect_threshold` stops.
BISECT_TOL = 1e-10


def bisect_threshold(
    difference: Callable[[float], float], bracket: Sequence[float]
) -> Optional[float]:
    """Root of a monotone scalar function by bisection, to within BISECT_TOL.

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
    while b - a > BISECT_TOL:
        mid = 0.5 * (a + b)
        fmid = difference(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (fa > 0.0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
