"""Reference oracle: the forms `splab.oracle` had before it was made lean.

The grid oracle is the formulation used before prices were scored against
a step table of demand.  Demand at each price adds the eight cells' masses
one by one, `prob * (price <= wtp)`, and the grid is `union1d` of a fresh
`linspace` mesh with the in-range candidate prices, so an argmax over it is
the plain first maximum of an ascending array.  It is slow (a few ms per
`grid_argmax` on the default grid).

The simulation draws each batch's (count, 3) uniforms in one array from a
Philox stream advanced to the batch's start, as before the uniforms were
streamed through a reused chunk buffer.  It holds 32 MB per 2^20 draws.

The cells are enumerated one consumer type and one signal at a time, as
before one cached table per parameter point held them.  Each posterior is
`_bayes` on the likelihoods that type reads off the signal, and each
Pr(signal | Q) is written out, as the enum-keyed posterior and
signal-distribution functions of `splab.model` gave them before they were
removed.  The no-separation witness adds the believing cells' masses with
the builtin `sum`, as before it read the low type's total mass off that
table; up to Python 3.11 `sum` adds floats one by one, from 3.12 it
compensates rounding.

All of these live in the tests only, where the fast oracle must equal them
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from splab import GridSpec, ModelParams, ParameterError, Quality, SeparationReport, SimReport
from splab.model import L, _bayes, w_bar, wtp_from_posterior

#: The four signals in cell order, as (good news, high precision).
SIGNALS = ((True, True), (False, True), (True, False), (False, False))


def consumer_cells(params: ModelParams, quality: Quality) -> list[tuple[float, float]]:
    h, gamma, mu0 = params.h, params.gamma, params.mu0
    wb = w_bar(params)
    cells: list[tuple[float, float]] = []
    for share, sophisticated in ((1.0 - params.lam, False), (params.lam, True)):
        for good_news, high in SIGNALS:
            w = h if high else L
            matches = good_news == (quality is Quality.G)
            prob = (gamma if high else 1.0 - gamma) * (w if matches else 1.0 - w)
            # A naive consumer reads every signal at the average precision.
            seen = w if sophisticated else wb
            like_G, like_B = (seen, 1.0 - seen) if good_news else (1.0 - seen, seen)
            mu = _bayes(mu0, like_G, like_B)
            cells.append((share * prob, wtp_from_posterior(mu, params)))
    return cells


def demand_by_enumeration(params: ModelParams, quality: Quality, price):
    prices = np.asarray(price, dtype=float)
    if np.any(prices < 0.0) or np.any(prices > 1.0):
        raise ParameterError("price must lie in [0, 1]")
    total = np.zeros_like(prices)
    for prob, wtp in consumer_cells(params, quality):
        total += prob * (prices <= wtp)
    if np.ndim(price) == 0:
        return float(total)
    return total


def grid_prices(params: ModelParams, quality: Quality, grid: GridSpec) -> np.ndarray:
    mesh = np.linspace(grid.price_min, grid.price_max, grid.points)
    candidates = {wtp for _, wtp in consumer_cells(params, quality)}
    candidates.add(params.v_B)
    in_range = [c for c in candidates if grid.price_min <= c <= grid.price_max]
    return np.union1d(mesh, np.array(in_range, dtype=float))


def grid_argmax(params: ModelParams, quality: Quality, grid: GridSpec) -> tuple[float, float]:
    prices = grid_prices(params, quality, grid)
    profits = prices * demand_by_enumeration(params, quality, prices)
    i = int(np.argmax(profits))
    return float(prices[i]), float(profits[i])


_BATCH = 1 << 20


def _batch_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * 3)
    return np.random.Generator(bitgen).random((count, 3))


def simulate_market(
    params: ModelParams, quality: Quality, price: float, draws: int, seed: int
) -> SimReport:
    buys_in = np.array([wtp >= price for _, wtp in consumer_cells(params, quality)])
    good = quality is Quality.G
    buys = 0
    done = 0
    while done < draws:
        count = min(_BATCH, draws - done)
        u = _batch_uniforms(seed, done, count)
        soph = u[:, 0] < params.lam
        high = u[:, 1] < params.gamma
        bad = (u[:, 2] < np.where(high, params.h, L)) ^ good
        idx = (soph.view(np.uint8) << 2) | ((~high).view(np.uint8) << 1) | bad.view(np.uint8)
        buys += int(np.count_nonzero(buys_in[idx]))
        done += count
    mean = buys / draws
    if draws > 1:
        var = buys * (1.0 - mean) / (draws - 1)
        se = math.sqrt(var / draws)
    else:
        se = 0.0
    return SimReport(draws, seed, mean, se, price * mean, price * se)


def check_no_separation(params: ModelParams) -> SeparationReport:
    v = params.v_B
    even = (min(v + (1.0 - v) * k / 101, 1.0) for k in range(1, 102))
    prices = tuple(p for p in even if p > v)
    believing = [
        (prob, wtp_from_posterior(1.0, params))
        for prob, _ in consumer_cells(params, Quality.B)
    ]
    mimic = tuple(p * sum(prob for prob, wtp in believing if p <= wtp) for p in prices)
    _, deviation = grid_argmax(params, Quality.G, GridSpec())
    margins = [m - v for m in mimic] + [deviation - v]
    return SeparationReport(
        v_B=v,
        prices=prices,
        mimic_profits=mimic,
        honest_profit=v,
        min_margin=min(margins),
        separation_possible=any(m <= 0.0 for m in margins),
    )
