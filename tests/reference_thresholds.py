"""Reference threshold engine: one boundary search per level, ties rebuilt per step.

This is the body `splab.equilibrium.thresholds` had before it read h_hat1,
h_star and the level-3 boundary off one level map and took each three-way
tie as one polynomial root.  Each `level_boundary` call sorts the roots of
its own cross pairs P_i - P_j (i <= max_level < j) and tests each piece's
midpoint; each bisection step of `three_way_tie` rebuilds all five levels'
quadratics through `tie_h`.  `thresholds()` must equal it bit for bit in
every field but lambda_hat1 and lambda_hat3, which must agree within the
bisection's tolerance (`tests/test_threshold_map.py`).  Both read the same
profit polynomials (`_profit_polys`, off the v_B-affine table) and share
`_roots`.

It also keeps the bodies the engine's warm path replaced, which
`tests/test_profit_table.py` holds the rewrites to: `ladder_profit_polys`
(the polynomials interpolated off the ladder at each v_B), `argmax_level`
(the full six-candidate argmax), `level_boundaries` (the level map through
`_roots`, `_sub` and `_eval` calls), `bracketed_root` and `lambda_bar`
(each lambda tie through it).
"""

from __future__ import annotations

from typing import Optional

from splab import ModelParams, ThresholdSet
from splab.demand import ladder_fields
from splab.equilibrium import (
    _V_BAR,
    Quadratic,
    _argmax,
    _baseline_set,
    _eval,
    _h_overline,
    _h_underline,
    _interpolate,
    _profit_polys,
    _require_base,
    _roots,
    _StructureConstants,
    _sub,
)
from splab.oracle import bisect_threshold


class _NoTie(Exception):
    """The two-level tie a three-way tie slides along is absent."""


def ladder_profit_polys(v_B: float) -> tuple[tuple[Quadratic, Quadratic], ...]:
    """Level k's profit_G as A_k(t) + lam * B_k(t), interpolated off the ladder at v_B.

    A and B interpolate `ladder_fields` at h in {0.5, 0.75, 1} and lam in
    {0, 1}; the engine's table is this at v_B = 0 and 1, made affine in v_B.
    """
    rows = [[ladder_fields(0.5 + t, lam, v_B) for t in (0.0, 0.25, 0.5)] for lam in (0.0, 1.0)]
    polys = []
    for k in range(5):
        at_0, at_1 = (
            _interpolate([wtps[k] * cov_G[k] for wtps, cov_G, _ in row]) for row in rows
        )
        polys.append((at_0, _sub(at_1, at_0)))
    return tuple(polys)


def at_lambda(a: Quadratic, b: Quadratic, lam: float) -> Quadratic:
    """A(t) + lam * B(t) as one quadratic in t."""
    return (a[0] + lam * b[0], a[1] + lam * b[1], a[2] + lam * b[2])


def profits_at(lam: float, v_B: float) -> list[Quadratic]:
    """The five levels' profit_G at this lam, as quadratics in t = h - 0.5."""
    return [at_lambda(a, b, lam) for a, b in _profit_polys(v_B)]


def bracketed_root(q: Quadratic, lo: float, hi: float) -> Optional[float]:
    """Root of q on [lo, hi] under bisect_threshold's rules.

    A zero at lo or hi is returned as is; no sign change gives None.  With a
    sign change exactly one root lies inside; rounding can put it a hair
    outside (or the discriminant a hair below 0), so the nearest candidate
    is clamped into the bracket.
    """
    f_lo, f_hi = _eval(q, lo), _eval(q, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        return None
    candidates = _roots(q) or [-q[1] / (2.0 * q[2])]
    root = min(candidates, key=lambda r: max(lo - r, r - hi, 0.0))
    return min(max(root, lo), hi)


def argmax_level(h: float, lam: float, v_B: float) -> int:
    """best_pooling_candidate's level at a baseline point (v_B counts as 1)."""
    level = _argmax(*_baseline_set(ladder_fields(h, lam, v_B), v_B)).level
    return level if level is not None else 1


def level_boundaries(lam: float, v_B: float) -> tuple[float, float, float]:
    """h_hat1, h_star and the level-3 boundary off one level map."""
    bounds = [1.0, 1.0, 1.0]
    wanted = min(argmax_level(1.0, lam, v_B) - 1, 3)
    if wanted == 0:
        return 1.0, 1.0, 1.0
    profits = profits_at(lam, v_B)
    edges = {0.0, 0.5}
    for i, low in enumerate(profits):
        for high in profits[i + 1:]:
            edges.update(r for r in _roots(_sub(low, high)) if 0.0 < r < 0.5)
    ordered = sorted(edges)
    found = 0
    for left, right in zip(ordered, ordered[1:]):
        mid = 0.5 * (left + right)
        values = [_eval(q, mid) for q in profits]
        while found < wanted and values.index(max(values)) > found:
            bounds[found] = 0.5 + left
            found += 1
        if found == wanted:
            break
    return bounds[0], bounds[1], bounds[2]


def tie_lambda(h: float, v_B: float, low: int, high: int) -> Optional[float]:
    """lambda at which the level-`low` and level-`high` profits cross."""
    polys = _profit_polys(v_B)
    a, b = _sub(polys[low - 1][0], polys[high - 1][0]), _sub(polys[low - 1][1], polys[high - 1][1])
    return bracketed_root((_eval(a, h - 0.5), _eval(b, h - 0.5), 0.0), 0.0, 1.0)


def lambda_bar(h: float, v_B: float, consts: _StructureConstants) -> Optional[float]:
    if h <= 0.5:
        return 0.0
    for knee, pair in ((consts.h_knee1, (1, 2)), (consts.h_knee2, (2, 3))):
        if knee is not None and h <= knee:
            root = tie_lambda(h, v_B, *pair)
            if root is not None:
                return root
    return tie_lambda(h, v_B, 3, 4)


def tie_h(lam: float, v_B: float, low: int, high: int) -> Optional[float]:
    """h at which the level-`high` profit overtakes the level-`low` profit."""
    profits = profits_at(lam, v_B)
    t = bracketed_root(_sub(profits[low - 1], profits[high - 1]), 0.0, 0.5)
    return None if t is None else 0.5 + t


def poly_profit_G(h: float, lam: float, v_B: float, level: int) -> float:
    a, b = _profit_polys(v_B)[level - 1]
    return _eval(a, h - 0.5) + lam * _eval(b, h - 0.5)


def level_boundary(lam: float, v_B: float, max_level: int) -> float:
    """Smallest h above which the profit argmax leaves levels 1..max_level."""
    if argmax_level(1.0, lam, v_B) <= max_level:
        return 1.0
    profits = profits_at(lam, v_B)
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


def with_existence(boundary: float, lam: float, v_B: float, level: int) -> Optional[float]:
    """Keep a level boundary only if that level actually occurs below it."""
    probe = max(0.5, boundary - 1e-8)
    if argmax_level(probe, lam, v_B) == level:
        return boundary
    return None


def structure_constants(v_B: float) -> _StructureConstants:
    eps = 1e-6
    lambda_hat2 = tie_lambda(1.0, v_B, 3, 4)

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
        h_hat2=with_existence(h_star, lam, v, level=2),
        h_hat3=with_existence(level_boundary(lam, v, 3), lam, v, level=3),
        lambda_hat1=consts.lambda_hat1,
        lambda_hat2=consts.lambda_hat2,
        lambda_hat3=consts.lambda_hat3,
        lambda_bar=lambda_bar(params.h, v, consts),
        v_bar=_V_BAR,
        h_underline=_h_underline(v),
        h_overline=_h_overline(v),
    )
