"""Reference grid oracle: the mesh unioned with the candidates, demand cell by cell.

This is the formulation `splab.oracle` used before it scored prices against
a step table of demand.  Demand at each price adds the eight cells' masses
one by one, `prob * (price <= wtp)`, and the grid is `union1d` of a fresh
`linspace` mesh with the in-range candidate prices, so an argmax over it is
the plain first maximum of an ascending array.  It is slow (a few ms per
`grid_argmax` on the default grid) and lives in the tests only, where the
fast oracle must equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from splab import GridSpec, ModelParams, ParameterError, Quality
from splab.oracle import consumer_cells


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
