"""Equilibrium solvers and comparative-statics thresholds.

Price signalling collapses here: no separating price pair survives the low
type's incentive to mimic, so equilibria are pooling (both qualities charge
one price) or, in a corner of the parameter space, partially separating with
the low type mixing between the pooling-like high price and the revealing
price v_B.

The pooling price maximizes the high type's expected profit over the
candidate prices: in the symmetric baseline the five WTP levels plus v_B, and
in the fully naive market (lam = 0) at any precision mix gamma and prior mu0
the two naive WTPs.  The equilibrium exists when the low type's profit at
that price is at least the sure deviation payoff v_B.  Off the equilibrium
path consumers keep their signal-based beliefs, except at prices only a low
type could gain from, which are attributed to the low type and therefore
yield at most v_B -- that is what reduces the deviation audit to the single
profit_B >= v_B comparison.  Other variants (lam > 0 off the baseline) are
not covered and raise UnsupportedVariantError.

Comparative-statics thresholds in the baseline come from exact roots.  Each
WTP level's profit_G is quadratic in h and linear in lam, so every pairwise
tie is a quadratic root in h (cancellation-free form) or a linear root in
lam, and h_underline, h_overline and v_bar have closed forms.  Only the two
three-way ties lambda_hat1 and lambda_hat3, which have none, bisect over
those closed-form roots.  The precision-mix thresholds (gamma_switch,
gamma_thresholds) are radicals too; only the prior thresholds (hstar_prior,
prior_mu_lower) still bisect.  The tests and `splab verify` check the engine
against bisection on the ladder itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

from .demand import WtpSchedule, build_wtp_schedule, expected_demand
from .model import (
    ModelParams,
    ParameterError,
    Quality,
    UnsupportedVariantError,
    Valence,
    posterior_naive,
    w_bar,
    wtp_from_posterior,
)
from .oracle import bisect_threshold

KIND_POOLING = "pooling"
KIND_MIXED = "mixed"
KIND_NONE = "none"


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Solver result.  kind is one of pooling / mixed / none.

    For pooling: price, profits, region R1..R4 and the WTP level the price
    sits on.  For mixed: the high price, the low type's weight alpha on it,
    and low_price = v_B.  For none: only a diagnostic note.
    """

    kind: str
    price: Optional[float] = None
    low_price: Optional[float] = None
    alpha: Optional[float] = None
    profit_G: Optional[float] = None
    profit_B: Optional[float] = None
    region: Optional[str] = None
    candidate_level: Optional[int] = None
    note: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class PoolingCandidate(NamedTuple):
    """Best candidate price for the high type, before the existence check."""

    price: float
    level: Optional[int]  # WTP level 1..5, or None if the price is v_B itself
    profit_G: float
    profit_B: float


def _require_base(params: ModelParams, op: str) -> None:
    if not params.is_base_variant:
        raise UnsupportedVariantError(
            f"{op} covers the symmetric baseline only (gamma=0.5, mu0=0.5); "
            f"got gamma={params.gamma}, mu0={params.mu0}"
        )


def best_pooling_candidate(params: ModelParams) -> PoolingCandidate:
    """Argmax of the high type's profit over the six candidate prices.

    Candidates are the five WTP rungs plus v_B.  Rung k earns
    wtp_k * coverage_k, read off the ladder; only v_B looks its demand up.
    Ties break toward the lower price; at equal prices (degenerate h = 0.5,
    or v_B touching a rung) toward the lower level, v_B last, keeping region
    labels deterministic.  The rungs' WTPs never decrease, so of rungs with
    equal WTPs the lowest covers the most and wins.  This argmax is well
    defined whether or not the pooling equilibrium ultimately exists, which
    is what the threshold machinery relies on.
    """
    schedule = build_wtp_schedule(params)
    v = params.v_B
    candidates = [
        PoolingCandidate(lvl.wtp, lvl.level, lvl.wtp * cov_G, lvl.wtp * cov_B)
        for lvl, cov_G, cov_B in zip(schedule.levels, schedule.coverage_G, schedule.coverage_B)
    ]
    candidates.append(
        PoolingCandidate(
            v,
            None,
            v * expected_demand(schedule, v, Quality.G),
            v * expected_demand(schedule, v, Quality.B),
        )
    )
    return max(candidates, key=lambda c: (c.profit_G, -c.price, -(c.level or 6)))


def _naive_prices(params: ModelParams) -> tuple[float, float, float]:
    """(bad-signal WTP, good-signal WTP, w_bar) of the fully naive market.

    w_bar is Pr(good valence | G); Pr(good valence | B) = 1 - w_bar.
    """
    p_low = wtp_from_posterior(posterior_naive(params, Valence.BAD), params)
    p_high = wtp_from_posterior(posterior_naive(params, Valence.GOOD), params)
    return p_low, p_high, w_bar(params)


def _naive_candidate(params: ModelParams) -> PoolingCandidate:
    """Argmax of the high type's profit in the fully naive market (lam = 0).

    Holds at any gamma, mu0 and v_B.  Only the two naive WTPs can win: the
    bad-signal WTP (full coverage, level 2) and the good-signal WTP (sold to
    good-signal holders only, level 4); v_B never beats the bad-signal WTP.
    Ties break toward the lower price.  At the baseline this agrees with
    best_pooling_candidate except at h = 0.5, where the five-rung argmax
    labels the tie level 1, and in the last bit of profit_B.
    """
    p_low, p_high, wb = _naive_prices(params)
    profit_high = p_high * wb
    if p_low >= profit_high:
        return PoolingCandidate(p_low, 2, p_low, p_low)
    return PoolingCandidate(p_high, 4, profit_high, p_high * (1.0 - wb))


def solve_pooling(params: ModelParams) -> EquilibriumOutcome:
    """Pooling equilibrium, or kind=none.

    The price is the high type's candidate argmax: best_pooling_candidate in
    the symmetric baseline, _naive_candidate in the fully naive market
    (lam = 0) at any gamma and mu0.  Other variants raise
    UnsupportedVariantError.  The equilibrium stands iff the low type weakly
    prefers the price to the sure full-coverage deviation payoff v_B (see
    the module docstring for why that is the only binding deviation).
    """
    if params.is_base_variant:
        cand = best_pooling_candidate(params)
    elif params.lam == 0.0:
        cand = _naive_candidate(params)
    else:
        raise UnsupportedVariantError(
            "solve_pooling covers the symmetric baseline (gamma=0.5, mu0=0.5) "
            "and the fully naive market (lam=0); got "
            f"lam={params.lam}, gamma={params.gamma}, mu0={params.mu0}"
        )
    if cand.profit_B >= params.v_B:
        level = cand.level if cand.level is not None else 1
        return EquilibriumOutcome(
            kind=KIND_POOLING,
            price=cand.price,
            profit_G=cand.profit_G,
            profit_B=cand.profit_B,
            region=f"R{level}",
            candidate_level=level,
        )
    return EquilibriumOutcome(
        kind=KIND_NONE,
        note=(
            f"pooling fails: low-type profit {cand.profit_B:.6g} at the "
            f"candidate price {cand.price:.6g} is below the deviation "
            f"payoff v_B={params.v_B:.6g}"
        ),
    )


#: The precision-mix and prior extensions are parameters of solve_pooling.
solve_gamma = solve_pooling
solve_prior = solve_pooling


def solve_mixed(params: ModelParams) -> EquilibriumOutcome:
    """Partially separating equilibrium of the fully naive market (lam = 0).

    The low type mixes between the revealing price v_B (weight 1 - alpha)
    and the high price p_bar charged by the high type.  Indifference pins
    p_bar * (3-2h)/4 = v_B, and belief consistency at p_bar pins
    alpha = 1/v_B - 4/(3-2h).  Feasible exactly when that alpha lands in
    (0, 1), i.e. v_B inside ((3-2h)/(7-2h), (3-2h)/4).
    """
    if params.lam != 0.0:
        raise UnsupportedVariantError(
            f"solve_mixed covers the fully naive market (lam=0) only; got "
            f"lam={params.lam}"
        )
    _require_base(params, "solve_mixed")
    h, v = params.h, params.v_B
    lo = (3.0 - 2.0 * h) / (7.0 - 2.0 * h)
    hi = (3.0 - 2.0 * h) / 4.0
    if v <= 0.0:
        return EquilibriumOutcome(
            kind=KIND_NONE,
            note=f"mixing requires v_B in ({lo:.6g}, {hi:.6g}); got v_B={v}",
        )
    alpha = 1.0 / v - 4.0 / (3.0 - 2.0 * h)
    if not 0.0 < alpha < 1.0:
        return EquilibriumOutcome(
            kind=KIND_NONE,
            note=(
                f"mixing weight {alpha:.6g} falls outside (0, 1); the "
                f"feasibility band is v_B in ({lo:.6g}, {hi:.6g})"
            ),
        )
    p_bar = 4.0 * v / (3.0 - 2.0 * h)
    return EquilibriumOutcome(
        kind=KIND_MIXED,
        price=p_bar,
        low_price=v,
        alpha=alpha,
        profit_G=p_bar * (1.0 + 2.0 * h) / 4.0,
        profit_B=v,
    )


# ---------------------------------------------------------------------------
# Threshold engine: each level's profit_G as an exact polynomial.
# ---------------------------------------------------------------------------

#: c0 + c1*x + c2*x**2; in h-direction polynomials x is t = h - 0.5.
Quadratic = tuple[float, float, float]


def _schedule(h: float, lam: float, v_B: float) -> WtpSchedule:
    return build_wtp_schedule(ModelParams(h=h, lam=lam, v_B=v_B))


def _level_profit_G(h: float, lam: float, v_B: float, level: int) -> float:
    """High-type profit from pricing at WTP level `level` (1..5), off the ladder."""
    sched = _schedule(h, lam, v_B)
    return sched.levels[level - 1].wtp * sched.coverage_G[level - 1]


def _argmax_level(h: float, lam: float, v_B: float) -> int:
    cand = best_pooling_candidate(ModelParams(h=h, lam=lam, v_B=v_B))
    return cand.level if cand.level is not None else 1


@lru_cache(maxsize=256)
def _profit_polys(v_B: float) -> tuple[tuple[Quadratic, Quadratic], ...]:
    """Level k's profit_G as A_k(t) + lam * B_k(t), t = h - 0.5, k = 1..5.

    Every WTP rung is linear in h and every coverage is linear in h and lam,
    so each level's profit is quadratic in h and linear in lam.  A and B
    interpolate the ladder itself at h in {0.5, 0.75, 1} and lam in {0, 1},
    which keeps the arithmetic in build_wtp_schedule; A_k(0) and B_k(0) are
    the ladder's own values at h = 0.5.
    """
    rows = [[_schedule(0.5 + t, lam, v_B) for t in (0.0, 0.25, 0.5)] for lam in (0.0, 1.0)]
    polys = []
    for k in range(5):
        at_0, at_1 = (
            _interpolate([s.levels[k].wtp * s.coverage_G[k] for s in row]) for row in rows
        )
        polys.append((at_0, _sub(at_1, at_0)))
    return tuple(polys)


def _interpolate(y: list[float]) -> Quadratic:
    """The quadratic in t through (0, y0), (1/4, y1) and (1/2, y2)."""
    y0, y1, y2 = y
    return (y0, -6.0 * y0 + 8.0 * y1 - 2.0 * y2, 8.0 * (y0 - 2.0 * y1 + y2))


def _sub(p: Quadratic, q: Quadratic) -> Quadratic:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _eval(q: Quadratic, x: float) -> float:
    return q[0] + x * (q[1] + x * q[2])


def _profits_at(lam: float, v_B: float) -> list[Quadratic]:
    """The five levels' profit_G at this lam, as quadratics in t = h - 0.5."""
    return [
        (a[0] + lam * b[0], a[1] + lam * b[1], a[2] + lam * b[2])
        for a, b in _profit_polys(v_B)
    ]


def _poly_profit_G(h: float, lam: float, v_B: float, level: int) -> float:
    a, b = _profit_polys(v_B)[level - 1]
    return _eval(a, h - 0.5) + lam * _eval(b, h - 0.5)


def _roots(q: Quadratic) -> list[float]:
    """Real roots of q, from the cancellation-free quadratic formula.

    The larger-magnitude root comes from -(c1 + sign(c1) sqrt(D))/2, the
    other from Vieta's c0/(c2 x1), so neither subtracts nearly equal numbers
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §1.8).
    """
    c0, c1, c2 = q
    if c2 == 0.0:
        return [] if c1 == 0.0 else [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    s = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    if s == 0.0:  # c0 = c1 = 0
        return [0.0]
    return [s / c2, c0 / s]


def _bracketed_root(q: Quadratic, lo: float, hi: float) -> Optional[float]:
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


def _tie_h(lam: float, v_B: float, low: int, high: int) -> Optional[float]:
    """h at which the level-`high` profit overtakes the level-`low` profit."""
    profits = _profits_at(lam, v_B)
    t = _bracketed_root(_sub(profits[low - 1], profits[high - 1]), 0.0, 0.5)
    return None if t is None else 0.5 + t


def _tie_lambda(h: float, v_B: float, low: int, high: int) -> Optional[float]:
    """lambda at which the level-`low` and level-`high` profits cross."""
    polys = _profit_polys(v_B)
    a, b = _sub(polys[low - 1][0], polys[high - 1][0]), _sub(polys[low - 1][1], polys[high - 1][1])
    return _bracketed_root((_eval(a, h - 0.5), _eval(b, h - 0.5), 0.0), 0.0, 1.0)


def _level_boundary(lam: float, v_B: float, max_level: int) -> float:
    """Smallest h above which the profit argmax leaves levels 1..max_level.

    That is the left end of the first interval of (0.5, 1) on which some
    level above max_level strictly beats every level at or below it (ties
    go to the lower level, as in best_pooling_candidate), or 1.0 when the
    argmax at h = 1 is still at or below max_level.  The interval edges are
    the roots of P_i - P_j for i <= max_level < j; between two edges no
    such difference changes sign, so one test at the midpoint decides the
    whole interval.  Nothing here assumes the argmax rises monotonically
    in h: the first switch is found even if a later one switches back.
    """
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


class _StructureConstants(NamedTuple):
    lambda_hat1: Optional[float]
    lambda_hat2: Optional[float]
    lambda_hat3: Optional[float]
    h_knee1: Optional[float]  # peak of the R1 boundary, at lambda_hat3
    h_knee2: Optional[float]  # peak of the R2 boundary, at lambda_hat1


@lru_cache(maxsize=256)
def _structure_constants(v_B: float) -> _StructureConstants:
    """The lambda-axis tie points and the two interior peaks of the region map.

    lambda_hat2: at h=1, where the mid-price (level 3) overtakes the
        naive-good price (level 4); a linear root.
    lambda_hat1: where levels 2, 3, 4 tie three ways -- located by sliding
        along the level-3/4 tie curve until level 2 stops dominating.
    lambda_hat3: where levels 1, 2, 3 tie three ways -- same idea on the
        level-1/2 tie curve.
    The two three-way ties have no closed form, so an outer bisection runs
    over the closed-form inner ties.
    """
    eps = 1e-6
    lambda_hat2 = _tie_lambda(1.0, v_B, 3, 4)

    def excess_2_over_34(lam: float) -> float:
        t = _tie_h(lam, v_B, 3, 4)
        assert t is not None
        return _poly_profit_G(t, lam, v_B, 2) - _poly_profit_G(t, lam, v_B, 3)

    def excess_1_over_3_at_12(lam: float) -> float:
        t = _tie_h(lam, v_B, 1, 2)
        assert t is not None
        return _poly_profit_G(t, lam, v_B, 1) - _poly_profit_G(t, lam, v_B, 3)

    lambda_hat1 = None
    # Absent, like the other thresholds, once lambda_hat2 leaves no bracket
    # (v_B within about 5e-6 of 1).
    if lambda_hat2 is not None and eps < lambda_hat2 - eps:
        lambda_hat1 = bisect_threshold(
            excess_2_over_34, (eps, lambda_hat2 - eps)
        )
    lambda_hat3 = bisect_threshold(excess_1_over_3_at_12, (eps, 1.0 - eps))

    h_knee1 = _tie_h(lambda_hat3, v_B, 1, 2) if lambda_hat3 is not None else None
    h_knee2 = _tie_h(lambda_hat1, v_B, 3, 4) if lambda_hat1 is not None else None
    return _StructureConstants(lambda_hat1, lambda_hat2, lambda_hat3, h_knee1, h_knee2)


def _lambda_bar(h: float, v_B: float, consts: _StructureConstants) -> Optional[float]:
    """Entry point of the profit trough in lambda at fixed h.

    Below the first knee the trough begins where the full-coverage price
    (level 1) catches the partial-coverage price (level 2); in the middle
    band where level 2 catches level 3; at the top where level 3 catches the
    naive-good price (level 4).  Each pairwise profit difference is linear
    in lambda, so each is one linear root.
    """
    if h <= 0.5:
        return 0.0
    for knee, pair in (
        (consts.h_knee1, (1, 2)),
        (consts.h_knee2, (2, 3)),
        (1.0, (3, 4)),
    ):
        if knee is not None and h <= knee:
            root = _tie_lambda(h, v_B, *pair)
            if root is not None:
                return root
    return _tie_lambda(h, v_B, 3, 4)


@dataclass(frozen=True)
class ThresholdSet:
    """Comparative-statics switch points, evaluated at one parameter set.

    h_star, h_hat1..3 are evaluated at the given lambda; lambda_bar at the
    given h; v_bar, h_underline, h_overline depend only on v_B.  Absent
    thresholds (the defining profit difference never changes sign on the
    bracket) are None.
    """

    h_star: Optional[float]
    h_hat1: Optional[float]
    h_hat2: Optional[float]
    h_hat3: Optional[float]
    lambda_hat1: Optional[float]
    lambda_hat2: Optional[float]
    lambda_hat3: Optional[float]
    lambda_bar: Optional[float]
    v_bar: Optional[float]
    h_underline: Optional[float]
    h_overline: Optional[float]
    v_bar_prime: float = field(default=5.0 / 9.0)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


#: Existence boundary for v_B: where the worst-case low-type pooling profit
#: at h = 1 (over lambda) equals the deviation payoff v_B.  The worst case
#: sits at the level-3/4 switch lambda_hat2 on the level-4 side, and that
#: branch's profit (3+v)/4 * (1-lambda_hat2)/4 = v has the root below.
_V_BAR = (4.0 * math.sqrt(2.0) - 5.0) / 7.0


def _h_underline(v_B: float) -> float:
    """h where the naive market's full-coverage profit v_B + (3-2h)(1-v_B)/4
    meets the sophisticated market's mid-price profit (1+h)(1+v_B)/4, i.e.
    h(3-v_B) = 2; it lies in [2/3, 1) for every v_B in [0, 1)."""
    return 2.0 / (3.0 - v_B)


def _h_overline(v_B: float) -> Optional[float]:
    """h where the naive market's high-price profit overtakes the
    sophisticated market's mid-price profit: the root of
    4(1+h)(1+v_B) = (1+2h)(1+2h+v_B(3-2h)), i.e. 4h^2(1-v_B) = 3+v_B.
    Absent (None) when that root exceeds 1, i.e. v_B above 1/5."""
    root = math.sqrt((3.0 + v_B) / (4.0 * (1.0 - v_B)))
    return root if root <= 1.0 else None


def thresholds(params: ModelParams) -> ThresholdSet:
    """All comparative-statics thresholds at this parameter set.

    The h-axis thresholds use the argmax-level switch, which exists whether
    or not the pooling equilibrium survives the deviation check -- so the
    set is well defined even for v_B above v_bar, where a sliver of the
    (h, lambda) square has no pure-strategy equilibrium.
    """
    _require_base(params, "thresholds")
    lam, v = params.lam, params.v_B
    consts = _structure_constants(v)

    h_star = _level_boundary(lam, v, 2)
    return ThresholdSet(
        h_star=h_star,
        h_hat1=_level_boundary(lam, v, 1),
        h_hat2=_with_existence(h_star, lam, v, level=2),
        h_hat3=_with_existence(_level_boundary(lam, v, 3), lam, v, level=3),
        lambda_hat1=consts.lambda_hat1,
        lambda_hat2=consts.lambda_hat2,
        lambda_hat3=consts.lambda_hat3,
        lambda_bar=_lambda_bar(params.h, v, consts),
        v_bar=_V_BAR,
        h_underline=_h_underline(v),
        h_overline=_h_overline(v),
    )


def _with_existence(
    boundary: float, lam: float, v_B: float, level: int
) -> Optional[float]:
    """Keep a level boundary only if that level actually occurs below it.

    With lambda past a knee the region for an intermediate level is empty;
    its boundary then coincides with a lower level's and is reported absent.
    """
    probe = max(0.5, boundary - 1e-8)
    if _argmax_level(probe, lam, v_B) == level:
        return boundary
    return None


# ---------------------------------------------------------------------------
# Extension thresholds.
# ---------------------------------------------------------------------------


_SQRT5 = math.sqrt(5.0)


def gamma_switch(h: float) -> Optional[float]:
    """gamma at which the good-signal price overtakes full coverage (v_B=0).

    The good-signal profit w_bar^2 meets full coverage 1 - w_bar where
    w_bar = 1/2 + gamma(h - 1/2) equals (sqrt(5)-1)/2, i.e. at
    gamma = (sqrt(5)-2)/(2h-1).  Absent (None) when that exceeds 1, i.e.
    for h below (sqrt(5)-1)/2 (full coverage wins for every gamma), and at
    h = 1/2, where w_bar does not move with gamma.
    """
    if not 0.5 <= h <= 1.0:
        raise ParameterError(f"h must lie in [0.5, 1], got {h}")
    if h == 0.5:
        return None
    gamma = (_SQRT5 - 2.0) / (2.0 * h - 1.0)
    return gamma if gamma <= 1.0 else None


def gamma_thresholds() -> tuple[float, float]:
    """(h_low, h_high) for the gamma extension at v_B = 0.

    Below h_low the full-coverage price wins for every gamma; above h_high
    the good-signal price wins for every gamma >= 0.5.  They are the roots
    in [0.5, 1] of 1 - h = h^2 and (3-2h)/4 = ((1+2h)/4)^2, namely
    (sqrt(5)-1)/2 and sqrt(5) - 3/2.
    """
    return (_SQRT5 - 1.0) / 2.0, _SQRT5 - 1.5


def hstar_prior(v_B: float, mu0: float) -> Optional[float]:
    """Precision at which the prior-model profit switches from falling to
    rising: where the good-signal price's profit catches full coverage."""

    def diff(h: float) -> float:
        p_low, p_high, wb = _naive_prices(ModelParams(h=h, lam=0.0, v_B=v_B, mu0=mu0))
        return p_high * wb - p_low

    return bisect_threshold(diff, (0.5, 1.0))


def prior_mu_lower(h: float, v_B: float) -> float:
    """Smallest prior above which pooling survives for every larger prior.

    The existence margin profit_B - v_B can dip negative on an interior
    band of priors (the high-price region with thin good-signal demand).
    There is no closed form; locate the margin's minimum by scanning 2001
    evenly spaced priors, then bisect on the increasing side.  Returns 0.0
    when pooling holds for every prior.
    """

    def margin(mu0: float) -> float:
        cand = _naive_candidate(ModelParams(h=h, lam=0.0, v_B=v_B, mu0=mu0))
        return cand.profit_B - v_B

    grid = [k / 2000 for k in range(2001)]
    margins = [margin(m) for m in grid]
    if all(m >= 0.0 for m in margins):
        return 0.0
    worst = min(range(len(grid)), key=lambda k: margins[k])
    root = bisect_threshold(margin, (grid[worst], 1.0))
    assert root is not None  # margin at mu0=1 is 1 - v_B > 0
    return root


# ---------------------------------------------------------------------------
# Market comparison and sweep classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Profit comparison between a fully naive and a fully sophisticated
    market at identical (h, v_B)."""

    preferred_by_G: str  # "naive" | "sophisticated" | "equal"
    preferred_by_B: str
    profit_gaps: dict  # quality -> naive profit minus sophisticated profit
    naive: EquilibriumOutcome
    sophisticated: EquilibriumOutcome

    def to_dict(self) -> dict:
        return asdict(self)


def compare_markets(
    params_naive: ModelParams, params_soph: ModelParams
) -> ComparisonReport:
    """Corollary-style comparison of the two extreme market compositions."""
    if params_naive.lam != 0.0 or params_soph.lam != 1.0:
        raise ParameterError(
            "compare_markets expects the naive market (lam=0) first and the "
            f"sophisticated market (lam=1) second; got lam={params_naive.lam} "
            f"and lam={params_soph.lam}"
        )
    same = (
        params_naive.h == params_soph.h
        and params_naive.v_B == params_soph.v_B
        and params_naive.gamma == params_soph.gamma
        and params_naive.mu0 == params_soph.mu0
    )
    if not same:
        raise ParameterError("compare_markets needs identical (h, v_B) across markets")

    naive = solve_pooling(params_naive)
    soph = solve_pooling(params_soph)

    def preference(quality: str) -> tuple[str, Optional[float]]:
        pn = getattr(naive, f"profit_{quality}")
        ps = getattr(soph, f"profit_{quality}")
        if pn is None or ps is None:
            return "undefined", None
        gap = pn - ps
        if gap > 0.0:
            return "naive", gap
        if gap < 0.0:
            return "sophisticated", gap
        return "equal", gap

    pref_G, gap_G = preference("G")
    pref_B, gap_B = preference("B")
    return ComparisonReport(
        preferred_by_G=pref_G,
        preferred_by_B=pref_B,
        profit_gaps={"G": gap_G, "B": gap_B},
        naive=naive,
        sophisticated=soph,
    )


def classify_equilibrium(params: ModelParams) -> tuple[str, EquilibriumOutcome]:
    """Region label for sweeps: R1..R4, 'mixed', or 'none'.

    Every variant routes through solve_pooling; where pooling fails in the
    baseline's fully naive market (lam = 0), the solve_mixed equilibrium is
    reported if it exists.
    """
    outcome = solve_pooling(params)
    if outcome.kind == KIND_NONE and params.lam == 0.0 and params.is_base_variant:
        mixed = solve_mixed(params)
        if mixed.kind == KIND_MIXED:
            outcome = mixed
    if outcome.kind == KIND_POOLING:
        assert outcome.region is not None
        return outcome.region, outcome
    return outcome.kind, outcome
