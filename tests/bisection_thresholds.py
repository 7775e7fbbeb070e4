"""Reference threshold engine: every threshold by bisection on the ladder.

This is the formulation `splab.equilibrium.thresholds` used before it took
its thresholds from exact polynomial roots.  Every profit here is read off
`build_wtp_schedule` at the point in question and every switch point is a
`bisect_threshold` (or a bisection on the argmax level), so agreement with
the closed-form engine is a cross-check of two independent routes to the
same numbers.  It is slow (about 0.25 s for each fresh v_B) and lives in the
tests only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from splab import ModelParams, ThresholdSet, best_pooling_candidate, build_wtp_schedule
from splab.oracle import bisect_threshold

TOL = 1e-10


def level_profit_G(h: float, lam: float, v_B: float, level: int) -> float:
    sched = build_wtp_schedule(ModelParams(h=h, lam=lam, v_B=v_B))
    return sched.levels[level - 1].wtp * sched.coverage_G[level - 1]


def argmax_level(h: float, lam: float, v_B: float) -> int:
    cand = best_pooling_candidate(ModelParams(h=h, lam=lam, v_B=v_B))
    return cand.level if cand.level is not None else 1


def level_boundary(lam: float, v_B: float, max_level: int) -> float:
    """Bisection on the predicate argmax_level(h) <= max_level over [0.5, 1]."""
    if argmax_level(1.0, lam, v_B) <= max_level:
        return 1.0
    lo, hi = 0.5, 1.0
    while hi - lo > TOL:
        mid = 0.5 * (lo + hi)
        if argmax_level(mid, lam, v_B) <= max_level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tie_h(lam: float, v_B: float, low: int, high: int) -> Optional[float]:
    return bisect_threshold(
        lambda h: level_profit_G(h, lam, v_B, low) - level_profit_G(h, lam, v_B, high),
        (0.5, 1.0),
    )


def tie_lambda(h: float, v_B: float, low: int, high: int) -> Optional[float]:
    return bisect_threshold(
        lambda lam: level_profit_G(h, lam, v_B, low) - level_profit_G(h, lam, v_B, high),
        (0.0, 1.0),
    )


@lru_cache(maxsize=None)
def structure_constants(v_B: float) -> tuple:
    """(lambda_hat1, lambda_hat2, lambda_hat3, h_knee1, h_knee2)."""
    eps = 1e-6
    lambda_hat2 = tie_lambda(1.0, v_B, 3, 4)

    def excess_2_over_34(lam: float) -> float:
        t = tie_h(lam, v_B, 3, 4)
        return level_profit_G(t, lam, v_B, 2) - level_profit_G(t, lam, v_B, 3)

    def excess_1_over_3_at_12(lam: float) -> float:
        t = tie_h(lam, v_B, 1, 2)
        return level_profit_G(t, lam, v_B, 1) - level_profit_G(t, lam, v_B, 3)

    lambda_hat1 = None
    if lambda_hat2 is not None and eps < lambda_hat2 - eps:
        lambda_hat1 = bisect_threshold(excess_2_over_34, (eps, lambda_hat2 - eps))
    lambda_hat3 = bisect_threshold(excess_1_over_3_at_12, (eps, 1.0 - eps))
    h_knee1 = tie_h(lambda_hat3, v_B, 1, 2) if lambda_hat3 is not None else None
    h_knee2 = tie_h(lambda_hat1, v_B, 3, 4) if lambda_hat1 is not None else None
    return lambda_hat1, lambda_hat2, lambda_hat3, h_knee1, h_knee2


def lambda_bar_pair(h: float, v_B: float) -> Optional[tuple[int, int]]:
    """The level pair whose lambda tie defines lambda_bar at h (None at h = 0.5)."""
    if h <= 0.5:
        return None
    _, _, _, knee1, knee2 = structure_constants(v_B)
    for knee, pair in ((knee1, (1, 2)), (knee2, (2, 3)), (1.0, (3, 4))):
        if knee is not None and h <= knee and tie_lambda(h, v_B, *pair) is not None:
            return pair
    return 3, 4


@lru_cache(maxsize=None)
def v_bar() -> Optional[float]:
    def margin(v: float) -> float:
        lh2 = tie_lambda(1.0, v, 3, 4)
        sched = build_wtp_schedule(ModelParams(h=1.0, lam=lh2, v_B=v))
        return sched.levels[3].wtp * sched.coverage_B[3] - v

    return bisect_threshold(margin, (1e-9, 0.25))


def h_underline(v_B: float) -> Optional[float]:
    def diff(h: float) -> float:
        sched = build_wtp_schedule(ModelParams(h=h, lam=0.0, v_B=v_B))
        return sched.levels[1].wtp - (1.0 + h) * (1.0 + v_B) / 4.0

    return bisect_threshold(diff, (0.5, 1.0))


def h_overline(v_B: float) -> Optional[float]:
    def diff(h: float) -> float:
        return 4.0 * (1.0 + h) * (1.0 + v_B) - (1.0 + 2.0 * h) * (
            1.0 + 2.0 * h + v_B * (3.0 - 2.0 * h)
        )

    return bisect_threshold(diff, (0.5, 1.0))


def with_existence(boundary: float, lam: float, v_B: float, level: int) -> Optional[float]:
    probe = max(0.5, boundary - 1e-8)
    return boundary if argmax_level(probe, lam, v_B) == level else None


def thresholds(params: ModelParams) -> ThresholdSet:
    h, lam, v = params.h, params.lam, params.v_B
    lambda_hat1, lambda_hat2, lambda_hat3, _, _ = structure_constants(v)
    pair = lambda_bar_pair(h, v)
    return ThresholdSet(
        h_star=level_boundary(lam, v, 2),
        h_hat1=level_boundary(lam, v, 1),
        h_hat2=with_existence(level_boundary(lam, v, 2), lam, v, level=2),
        h_hat3=with_existence(level_boundary(lam, v, 3), lam, v, level=3),
        lambda_hat1=lambda_hat1,
        lambda_hat2=lambda_hat2,
        lambda_hat3=lambda_hat3,
        lambda_bar=0.0 if pair is None else tie_lambda(h, v, *pair),
        v_bar=v_bar(),
        h_underline=h_underline(v),
        h_overline=h_overline(v),
    )
