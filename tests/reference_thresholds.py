"""Reference threshold engine: one boundary search per level, ties rebuilt per step.

This is the body `splab.equilibrium.thresholds` had before it read h_hat1,
h_star and the level-3 boundary off one level map and took each three-way
tie as one polynomial root.  Each `level_boundary` call sorts the roots of
its own cross pairs P_i - P_j (i <= max_level < j) and tests each piece's
midpoint; each bisection step of `three_way_tie` rebuilds all five levels'
quadratics through `tie_h`.  `thresholds()` must equal it bit for bit in
every field but lambda_hat1 and lambda_hat3, which must agree within the
bisection's tolerance (`tests/test_threshold_map.py`).  The helpers both
share (`_profit_polys`, `_roots`, `_bracketed_root`, `_with_existence`,
`_lambda_bar`, ...) are imported.
"""

from __future__ import annotations

from typing import Optional

from splab import ModelParams, ThresholdSet
from splab.equilibrium import (
    _V_BAR,
    _StructureConstants,
    _argmax_level,
    _bracketed_root,
    _eval,
    _h_overline,
    _h_underline,
    _lambda_bar,
    _profit_polys,
    _profits_at,
    _require_base,
    _roots,
    _sub,
    _tie_lambda,
    _with_existence,
)
from splab.oracle import bisect_threshold


class _NoTie(Exception):
    """The two-level tie a three-way tie slides along is absent."""


def tie_h(lam: float, v_B: float, low: int, high: int) -> Optional[float]:
    """h at which the level-`high` profit overtakes the level-`low` profit."""
    profits = _profits_at(lam, v_B)
    t = _bracketed_root(_sub(profits[low - 1], profits[high - 1]), 0.0, 0.5)
    return None if t is None else 0.5 + t


def poly_profit_G(h: float, lam: float, v_B: float, level: int) -> float:
    a, b = _profit_polys(v_B)[level - 1]
    return _eval(a, h - 0.5) + lam * _eval(b, h - 0.5)


def level_boundary(lam: float, v_B: float, max_level: int) -> float:
    """Smallest h above which the profit argmax leaves levels 1..max_level."""
    if _argmax_level(1.0, lam, v_B) <= max_level:
        return 1.0
    profits = _profits_at(lam, v_B)
    edges = {0.0, 0.5}
    for low in profits[:max_level]:
        for high in profits[max_level:]:
            edges.update(r for r in _roots(_sub(low, high)) if 0.0 < r < 0.5)
    ordered = sorted(edges)
    for left, right in zip(ordered, ordered[1:]):
        values = [_eval(q, 0.5 * (left + right)) for q in profits]
        if max(values[max_level:]) > max(values[:max_level]):
            return 0.5 + left
    return 1.0


def structure_constants(v_B: float) -> _StructureConstants:
    eps = 1e-6
    lambda_hat2 = _tie_lambda(1.0, v_B, 3, 4)

    def three_way_tie(low: int, high: int, other: int, bracket) -> Optional[float]:
        def excess(lam: float) -> float:
            t = tie_h(lam, v_B, low, high)
            if t is None:
                raise _NoTie
            return poly_profit_G(t, lam, v_B, low) - poly_profit_G(t, lam, v_B, other)

        try:
            return bisect_threshold(excess, bracket)
        except _NoTie:
            return None

    lambda_hat1 = None
    if lambda_hat2 is not None and eps < lambda_hat2 - eps:
        lambda_hat1 = three_way_tie(3, 4, 2, (eps, lambda_hat2 - eps))
    lambda_hat3 = three_way_tie(1, 2, 3, (eps, 1.0 - eps))

    h_knee1 = tie_h(lambda_hat3, v_B, 1, 2) if lambda_hat3 is not None else None
    h_knee2 = tie_h(lambda_hat1, v_B, 3, 4) if lambda_hat1 is not None else None
    return _StructureConstants(lambda_hat1, lambda_hat2, lambda_hat3, h_knee1, h_knee2)


def thresholds(params: ModelParams) -> ThresholdSet:
    _require_base(params, "thresholds")
    lam, v = params.lam, params.v_B
    consts = structure_constants(v)

    h_star = level_boundary(lam, v, 2)
    return ThresholdSet(
        h_star=h_star,
        h_hat1=level_boundary(lam, v, 1),
        h_hat2=_with_existence(h_star, lam, v, level=2),
        h_hat3=_with_existence(level_boundary(lam, v, 3), lam, v, level=3),
        lambda_hat1=consts.lambda_hat1,
        lambda_hat2=consts.lambda_hat2,
        lambda_hat3=consts.lambda_hat3,
        lambda_bar=_lambda_bar(params.h, v, consts),
        v_bar=_V_BAR,
        h_underline=_h_underline(v),
        h_overline=_h_overline(v),
    )
