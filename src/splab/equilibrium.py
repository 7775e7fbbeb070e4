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
WTP level's profit_G is quadratic in h, linear in lam and affine in v_B, so
one table of coefficients, built once off the ladder, gives every level's
profit polynomial at any v_B; every pairwise tie is a quadratic root in h
(cancellation-free form) or a linear root in lam, and h_underline,
h_overline and v_bar have closed forms.  At one
(lam, v_B) the sorted pairwise ties in h split (0.5, 1) into a level map:
pieces on which no two levels swap order, so one evaluation per piece gives
its argmax level, and h_hat1, h_star and h_hat3 are the left ends of the
first pieces whose level exceeds 1, 2 and 3.  The two three-way ties
lambda_hat1 and lambda_hat3 are each a root of one quartic in h, found
without numpy by splitting at the roots of its derivatives.  The
precision-mix thresholds (gamma_switch, gamma_thresholds) are radicals too;
only the prior thresholds (hstar_prior, prior_mu_lower) still bisect.  The
tests and `splab verify` check the engine against bisection on the ladder
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

# build_wtp_schedule and expected_demand stay importable for the trace hooks.
from .demand import build_wtp_schedule, expected_demand, ladder, ladder_fields  # noqa: F401
from .model import (
    BASE,
    L,
    ModelParams,
    ParameterError,
    Record,
    UnsupportedVariantError,
    _require_base,
    posterior_wtp,
)
from .oracle import bisect_threshold

KIND_POOLING = "pooling"
KIND_MIXED = "mixed"
KIND_NONE = "none"
#: A pooling outcome's region label, by the WTP level its price sits on (1..5).
_REGIONS = tuple(f"R{level}" for level in range(6))


@dataclass(frozen=True, init=False)
class EquilibriumOutcome(Record):
    """Solver result.  kind is one of pooling / mixed / none.

    For pooling: price, profits, region R1..R4 and the WTP level the price
    sits on.  For mixed: the high price, the low type's weight alpha on it,
    and low_price = v_B.  For none: only a diagnostic note.

    A grid builds one per point, so `__init__` is written out: it has the
    generated signature but stores the nine fields in one dict update, not
    one `object.__setattr__` call each (about 0.7 against 1.5 µs).  The
    cost is the instance dict, which is then materialised: about 330 bytes
    per live object against 205.
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

    def __init__(
        self,
        kind: str,
        price: Optional[float] = None,
        low_price: Optional[float] = None,
        alpha: Optional[float] = None,
        profit_G: Optional[float] = None,
        profit_B: Optional[float] = None,
        region: Optional[str] = None,
        candidate_level: Optional[int] = None,
        note: Optional[str] = None,
    ) -> None:
        self.__dict__.update(
            kind=kind, price=price, low_price=low_price, alpha=alpha, profit_G=profit_G,
            profit_B=profit_B, region=region, candidate_level=candidate_level, note=note,
        )


class PoolingCandidate(NamedTuple):
    """Best candidate price for the high type, before the existence check."""

    price: float
    level: Optional[int]  # WTP level 1..5, or None if the price is v_B itself
    profit_G: float
    profit_B: float


def best_pooling_candidate(params: ModelParams) -> PoolingCandidate:
    """Argmax of the high type's profit over the six candidate prices.

    Candidates are the five WTP rungs plus v_B; see _baseline_set.  The
    argmax is defined whether or not the pooling equilibrium exists, which
    the threshold engine relies on.
    """
    return _argmax(*_baseline_set(ladder(params), params.v_B))


def _argmax(prices, cov_G, cov_B, levels) -> PoolingCandidate:
    """The high type's best candidate: candidate i earns prices[i] * cov_G[i].

    Ties go to the lower price, then to the earlier candidate.  Only the
    winner becomes a PoolingCandidate, its profit_B price * cov_B[i].
    """
    best, best_profit = 0, prices[0] * cov_G[0]
    for i in range(1, len(prices)):
        profit = prices[i] * cov_G[i]
        if profit > best_profit or (profit == best_profit and prices[i] < prices[best]):
            best, best_profit = i, profit
    price = prices[best]
    return PoolingCandidate(price, levels[best], best_profit, price * cov_B[best])


def _argmaxes(prices, cov_G, cov_B, levels) -> tuple[np.ndarray, ...]:
    """_argmax at many points: the same products and tie-break on np.where.

    The prices are arrays of one shape; a coverage may be a float.  Returns
    (price, level, profit_G, profit_B), with level an object array, so every
    field equals the scalar _argmax's bit for bit.
    """
    best = np.zeros(prices[0].shape, dtype=np.intp)
    best_price, best_profit = prices[0], prices[0] * cov_G[0]
    for i in range(1, len(prices)):
        profit = prices[i] * cov_G[i]
        wins = (profit > best_profit) | ((profit == best_profit) & (prices[i] < best_price))
        best = np.where(wins, i, best)
        best_price = np.where(wins, prices[i], best_price)
        best_profit = np.where(wins, profit, best_profit)
    profit_B = best_price * np.choose(best, cov_B)
    return best_price, np.array(levels, dtype=object)[best], best_profit, profit_B


#: The baseline candidates' levels: the five rungs, then v_B.
_BASELINE_LEVELS = (1, 2, 3, 4, 5, None)


def _baseline_set(fields: tuple[tuple[float, ...], ...], v: float) -> tuple:
    """The baseline's six candidates on the flat `ladder_fields` tuples at v_B = v.

    Rung k earns wtp_k * coverage_k; v_B earns the coverage of the lowest
    rung covering it, or 0 above the top rung.  The WtpLevel/WtpSchedule
    objects are left to build_wtp_schedule's callers (`verify`, the demos,
    the library).
    """
    wtps, cov_G, cov_B = fields
    covering = 0
    while covering < 5 and v > wtps[covering]:
        covering += 1
    v_cov_G, v_cov_B = (cov_G[covering], cov_B[covering]) if covering < 5 else (0.0, 0.0)
    return (*wtps, v), (*cov_G, v_cov_G), (*cov_B, v_cov_B), _BASELINE_LEVELS


def best_pooling_candidates(h, lam, v_B) -> tuple[np.ndarray, ...]:
    """best_pooling_candidate at many baseline points, as arrays.

    h, lam and v_B are float arrays that broadcast together; they are not
    validated.  Returns _argmaxes' (price, level, profit_G, profit_B) over
    _baseline_set's six candidates, v_B's coverage looked up rung by rung
    on arrays, so every field equals the scalar argmax's bit for bit.
    """
    h, lam, v_B = np.broadcast_arrays(h, lam, v_B)
    wtps, cov_G, cov_B = ladder_fields(h, lam, v_B)
    v_cov_G = v_cov_B = np.zeros_like(v_B)
    for k in range(4, -1, -1):
        covered = v_B <= wtps[k]
        v_cov_G = np.where(covered, cov_G[k], v_cov_G)
        v_cov_B = np.where(covered, cov_B[k], v_cov_B)
    return _argmaxes((*wtps, v_B), (*cov_G, v_cov_G), (*cov_B, v_cov_B), _BASELINE_LEVELS)


def _naive_set(h, v_B, gamma, mu0) -> tuple:
    """The fully naive market's two candidates, on floats or numpy arrays.

    The bad-signal WTP sells to everyone (level 2), the good-signal WTP to
    good-signal holders only (level 4): a share w_bar = Pr(good valence | G)
    under G and 1 - w_bar under B.  v_B is no candidate: in exact arithmetic
    it never beats the bad-signal WTP.  The fields broadcast together as in
    `demand.ladder_fields`: w_bar is `model.w_bar`'s expression and each WTP
    is `model.posterior_wtp`, so an array element rounds exactly as the
    float call does.  posterior_wtp's zero-denominator guard fires here: at
    h = 1, gamma = 1 - 2**-53 and mu0 = 0, w_bar rounds to 1, the
    good-signal posterior keeps the prior 0 and its WTP is v_B.

    The good-signal WTP wins only when its profit is strictly larger: on an
    exact tie it would need the lower price, but p_high * w_bar <= p_high
    for w_bar <= 1.
    """
    wb = gamma * h + (1.0 - gamma) * L
    prices = posterior_wtp(mu0, 1.0 - wb, wb, v_B), posterior_wtp(mu0, wb, 1.0 - wb, v_B)
    return prices, (1.0, wb), (1.0, 1.0 - wb), (2, 4)


def _naive_candidate(params: ModelParams) -> PoolingCandidate:
    """Argmax of the high type's profit in the fully naive market (lam = 0).

    Holds at any gamma, mu0 and v_B; see _naive_set.  At the baseline this
    agrees with best_pooling_candidate except at h = 0.5, where the
    five-rung argmax labels the tie level 1, and in the last bit of
    profit_B.
    """
    return _argmax(*_naive_set(params.h, params.v_B, params.gamma, params.mu0))


def naive_candidates(h, v_B, gamma, mu0) -> tuple[np.ndarray, ...]:
    """_naive_candidate at many fully naive points, as arrays.

    The fields are float arrays that broadcast together; they are not
    validated.  Returns _argmaxes' (price, level, profit_G, profit_B), so
    every field equals _naive_candidate's bit for bit.
    """
    return _argmaxes(*_naive_set(*np.broadcast_arrays(h, v_B, gamma, mu0)))


def pooling_candidates(h, lam, v_B, gamma, mu0) -> tuple[np.ndarray, ...]:
    """The candidate solve_pooling takes at each of many points, as arrays.

    The five fields are float arrays of one shape; they are not validated.
    Points are routed as solve_pooling routes them: baseline points
    (gamma = mu0 = BASE) to best_pooling_candidates, the rest to
    naive_candidates, the fully naive market.  Off the baseline
    solve_pooling refuses lam != 0, and so does `cli._refuse_grid` before
    any point of a grid is solved, so no such point may reach here.
    Returns (price, level, profit_G, profit_B) at every point, as
    best_pooling_candidates and naive_candidates do.
    """
    base = (gamma == BASE) & (mu0 == BASE)
    naive = ~base
    assert (lam[naive] == 0.0).all(), "lam != 0 off the baseline has no candidate"
    fields = tuple(np.empty(h.shape, dtype) for dtype in (float, object, float, float))
    for mask, computed in (
        (base, best_pooling_candidates(h[base], lam[base], v_B[base])),
        (naive, naive_candidates(h[naive], v_B[naive], gamma[naive], mu0[naive])),
    ):
        for field, values in zip(fields, computed):
            field[mask] = values
    return fields


def solve_pooling(
    params: ModelParams, candidate: Optional[PoolingCandidate] = None
) -> EquilibriumOutcome:
    """Pooling equilibrium, or kind=none.

    The price is the high type's candidate argmax: best_pooling_candidate in
    the symmetric baseline, _naive_candidate in the fully naive market
    (lam = 0) at any gamma and mu0.  Other variants raise
    UnsupportedVariantError.  A caller that already holds the argmax (the
    batched grid, from pooling_candidates) passes it as `candidate`, which
    must equal the one chosen here.  The equilibrium stands iff the low type
    weakly prefers the price to the sure full-coverage deviation payoff v_B
    (see the module docstring for why that is the only binding deviation).
    """
    if candidate is not None:
        cand = candidate
    elif params.is_base_variant:
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
        # kind, price, low_price, alpha, profit_G, profit_B, region, level.
        return EquilibriumOutcome(
            KIND_POOLING, cand.price, None, None, cand.profit_G, cand.profit_B,
            _REGIONS[level], level,
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
    and the high price p_bar charged by the high type.  At lam = 0 only
    the naive good-signal buyers (rung 4) pay p_bar: the ladder's rung-4
    coverages c_B = cov_B[3] = (3-2h)/4 under B and c_G = cov_G[3] =
    (1+2h)/4 under G.  Indifference pins p_bar * c_B = v_B, belief
    consistency at p_bar pins alpha = 1/v_B - 1/c_B, and the high type
    earns p_bar * c_G.  Feasible exactly when that alpha lands in (0, 1),
    i.e. v_B inside (c_B/(1+c_B), c_B).
    """
    if params.lam != 0.0:
        raise UnsupportedVariantError(
            f"solve_mixed covers the fully naive market (lam=0) only; got "
            f"lam={params.lam}"
        )
    _require_base(params, "solve_mixed")
    _, cov_G, cov_B = ladder_fields(params.h, params.lam, params.v_B)
    v = params.v_B
    lo, hi = cov_B[3] / (1.0 + cov_B[3]), cov_B[3]
    if v <= 0.0:
        return EquilibriumOutcome(
            kind=KIND_NONE,
            note=f"mixing requires v_B in ({lo:.6g}, {hi:.6g}); got v_B={v}",
        )
    alpha = 1.0 / v - 1.0 / cov_B[3]
    if not 0.0 < alpha < 1.0:
        return EquilibriumOutcome(
            kind=KIND_NONE,
            note=(
                f"mixing weight {alpha:.6g} falls outside (0, 1); the "
                f"feasibility band is v_B in ({lo:.6g}, {hi:.6g})"
            ),
        )
    p_bar = v / cov_B[3]
    return EquilibriumOutcome(
        kind=KIND_MIXED,
        price=p_bar,
        low_price=v,
        alpha=alpha,
        profit_G=p_bar * cov_G[3],
        profit_B=v,
    )


# ---------------------------------------------------------------------------
# Threshold engine: each level's profit_G as an exact polynomial.
# ---------------------------------------------------------------------------

#: c0 + c1*x + c2*x**2; in h-direction polynomials x is t = h - 0.5.
Quadratic = tuple[float, float, float]
#: Each level's profit_G as (A, B), profit_G = A(t) + lam * B(t); see _profit_polys.
Polys = list[tuple[Quadratic, Quadratic]]


def _level_profit_G(h: float, lam: float, v_B: float, level: int) -> float:
    """High-type profit from pricing at WTP level `level` (1..5), off the ladder."""
    wtps, cov_G, _ = ladder_fields(h, lam, v_B)
    return wtps[level - 1] * cov_G[level - 1]


def _argmax_level(h: float, lam: float, v_B: float) -> int:
    """best_pooling_candidate's level at a baseline point (v_B counts as 1).

    The products and tie-break of _argmax over _baseline_set's six
    candidates, kept to the level: the threshold engine asks for nothing
    else, so no PoolingCandidate or candidate tuples are built.
    """
    wtps, cov_G, _ = ladder_fields(h, lam, v_B)
    best, best_price = 0, wtps[0]
    best_profit = best_price * cov_G[0]
    for k in range(1, 5):
        price = wtps[k]
        profit = price * cov_G[k]
        if profit > best_profit or (profit == best_profit and price < best_price):
            best, best_price, best_profit = k, price, profit
    # v_B earns the coverage of the lowest rung covering it, 0 above the top.
    v_cov_G = 0.0
    for k in range(5):
        if v_B <= wtps[k]:
            v_cov_G = cov_G[k]
            break
    profit = v_B * v_cov_G
    if profit > best_profit or (profit == best_profit and v_B < best_price):
        return 1
    return best + 1


def _interpolate(y: list[float]) -> Quadratic:
    """The quadratic in t through (0, y0), (1/4, y1) and (1/2, y2)."""
    y0, y1, y2 = y
    return (y0, -6.0 * y0 + 8.0 * y1 - 2.0 * y2, 8.0 * (y0 - 2.0 * y1 + y2))


def _sub(p: Quadratic, q: Quadratic) -> Quadratic:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _ladder_table() -> tuple[tuple[tuple[float, float], ...], ...]:
    """Every level's A_k(t) + lam * B_k(t) coefficients, affine in v_B.

    Every WTP rung is linear in h and affine in v_B, and every coverage is
    linear in h and lam, so each level's profit_G is quadratic in t = h - 0.5,
    linear in lam and affine in v_B.  A and B interpolate the ladder itself
    at h in {0.5, 0.75, 1} and lam in {0, 1}, at v_B = 0 and at v_B = 1,
    which keeps the arithmetic in `ladder_fields` (one array call, which
    rounds as the float calls do).  Row k holds level k + 1's six
    coefficients, A's three then B's, each as (value at v_B = 0, slope in
    v_B).
    """
    h, lam, v_B = np.meshgrid([0.5, 0.75, 1.0], [0.0, 1.0], [0.0, 1.0], indexing="ij")
    wtps, cov_G, _ = ladder_fields(h, lam, v_B)
    rows = []
    for k in range(5):
        profit = (wtps[k] * cov_G[k]).tolist()  # profit[h][lam][v_B]
        at_v = []
        for j in (0, 1):
            a = _interpolate([profit[i][0][j] for i in range(3)])
            b = _sub(_interpolate([profit[i][1][j] for i in range(3)]), a)
            at_v.append((*a, *b))
        rows.append(tuple((c0, c1 - c0) for c0, c1 in zip(*at_v)))
    return tuple(rows)


#: Built once, off the ladder; see _ladder_table.
_PROFIT_TABLE = _ladder_table()


def _profit_polys(v_B: float) -> Polys:
    """Level k's profit_G as A_k(t) + lam * B_k(t), t = h - 0.5, k = 1..5.

    _PROFIT_TABLE evaluated at v_B: each coefficient is its value at
    v_B = 0 plus v_B times its slope.  It matches interpolating the ladder
    at v_B itself to within a few 1e-15.
    """
    return [
        (
            (a0 + v_B * s0, a1 + v_B * s1, a2 + v_B * s2),
            (b0 + v_B * t0, b1 + v_B * t1, b2 + v_B * t2),
        )
        for (a0, s0), (a1, s1), (a2, s2), (b0, t0), (b1, t1), (b2, t2) in _PROFIT_TABLE
    ]


def _mul(p: Quadratic, q: Quadratic) -> tuple[float, ...]:
    """p * q, a quartic in ascending coefficients."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    return (p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0, p1 * q2 + p2 * q1, p2 * q2)


def _eval(q: Quadratic, x: float) -> float:
    return q[0] + x * (q[1] + x * q[2])


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


def _polyval(p: tuple[float, ...], x: float) -> float:
    """p(x) by Horner's rule, p's coefficients in ascending order."""
    y = 0.0
    for c in reversed(p):
        y = y * x + c
    return y


def _interval_roots(p: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """Sorted real roots on [lo, hi] of p (ascending coefficients), no numpy.

    Up to degree 2 the roots are _roots'.  Above it, the roots of p' split
    [lo, hi] into pieces on which p is monotone, found the same way one
    degree down; a piece whose ends differ in sign holds one root, taken by
    Newton steps kept inside the piece (a step that leaves it bisects
    instead) until the step no longer moves x.  An end at which p is exactly
    0 is a root.  A root of even multiplicity (no sign change) is not
    reported.  No coefficient is trimmed: a leading coefficient at rounding
    level only puts roots of p' far outside [lo, hi].
    """
    if len(p) <= 3:
        return sorted(r for r in _roots((*p, 0.0, 0.0)[:3]) if lo <= r <= hi)
    dp = tuple(k * c for k, c in enumerate(p) if k)
    cuts = [lo, *_interval_roots(dp, lo, hi), hi]
    roots: list[float] = []
    f_right = _polyval(p, lo)
    for left, right in zip(cuts, cuts[1:]):
        f_left, f_right = f_right, _polyval(p, right)
        if f_left == 0.0 and (not roots or roots[-1] < left):
            roots.append(left)
        if (f_left < 0.0 < f_right) or (f_right < 0.0 < f_left):
            roots.append(_monotone_root(p, dp, left, right, f_left))
    if f_right == 0.0 and (not roots or roots[-1] < hi):
        roots.append(hi)
    return roots


def _monotone_root(
    p: tuple[float, ...], dp: tuple[float, ...], a: float, b: float, f_a: float
) -> float:
    """The root of p in (a, b), where p is monotone and p(a), p(b) differ in sign."""
    x = 0.5 * (a + b)
    for _ in range(100):
        f = _polyval(p, x)
        if f == 0.0:
            return x
        if (f > 0.0) == (f_a > 0.0):
            a = x
        else:
            b = x
        slope = _polyval(dp, x)
        step = x - f / slope if slope != 0.0 else math.nan
        if step == x:
            return x
        if not a < step < b:
            step = 0.5 * (a + b)
            if not a < step < b:  # a and b are adjacent floats
                return x
        x = step
    return x


def _lambda_root(a: float, b: float) -> Optional[float]:
    """Root of a + lam * b on [0, 1] under bisect_threshold's rules.

    A zero at either end is returned as is; no sign change gives None.  With
    a sign change the root -a / b lies inside up to rounding, so it is
    clamped into [0, 1].
    """
    if a == 0.0:
        return 0.0
    at_1 = a + b
    if at_1 == 0.0:
        return 1.0
    if (a > 0.0) == (at_1 > 0.0):
        return None
    return min(max(-a / b, 0.0), 1.0)


def _tie_lambda(polys: Polys, h: float, low: int, high: int) -> Optional[float]:
    """lambda at which the level-`low` and level-`high` profits cross at h."""
    (a_low, b_low), (a_high, b_high) = polys[low - 1], polys[high - 1]
    t = h - 0.5
    a = (a_low[0] - a_high[0]) + t * ((a_low[1] - a_high[1]) + t * (a_low[2] - a_high[2]))
    b = (b_low[0] - b_high[0]) + t * ((b_low[1] - b_high[1]) + t * (b_low[2] - b_high[2]))
    return _lambda_root(a, b)


def _level_boundaries(polys: Polys, lam: float, v_B: float) -> tuple[float, float, float]:
    """Smallest h above which the profit argmax leaves levels 1..m, m = 1, 2, 3.

    Each is the left end of the first piece of the level map on which the
    argmax level (ties to the lower level, as in best_pooling_candidate)
    exceeds m, or 1.0 when the argmax at h = 1 is still at or below m.  The
    map's edges are the sorted roots t = h - 0.5 in (0, 0.5) of every
    P_i - P_j; between two edges no two levels swap order, so one evaluation
    at the midpoint gives the level of the whole piece.  Nothing here assumes the argmax
    rises monotonically in h: the first switch is found even if a later one
    switches back.  The scan stops at the first piece that settles all three.
    The ten pair roots and the five evaluations per piece are written out
    (the float operations of _roots and _eval), as this is the warm path's
    inner loop.
    """
    bounds = [1.0, 1.0, 1.0]
    wanted = min(_argmax_level(1.0, lam, v_B) - 1, 3)
    if wanted == 0:
        return 1.0, 1.0, 1.0
    profits = [
        (a0 + lam * b0, a1 + lam * b1, a2 + lam * b2) for (a0, a1, a2), (b0, b1, b2) in polys
    ]
    edges = {0.0, 0.5}
    for i, (p0, p1, p2) in enumerate(profits):
        for q0, q1, q2 in profits[i + 1:]:
            c0, c1, c2 = p0 - q0, p1 - q1, p2 - q2
            if c2 == 0.0:
                roots = () if c1 == 0.0 else (-c0 / c1,)
            else:
                disc = c1 * c1 - 4.0 * c2 * c0
                if disc < 0.0:
                    continue
                s = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
                roots = (s / c2, c0 / s) if s != 0.0 else ()
            for r in roots:
                if 0.0 < r < 0.5:
                    edges.add(r)
    ordered = sorted(edges)
    found = 0
    (p10, p11, p12), (p20, p21, p22), (p30, p31, p32), (p40, p41, p42), (p50, p51, p52) = profits
    for left, right in zip(ordered, ordered[1:]):
        x = 0.5 * (left + right)
        values = [
            p10 + x * (p11 + x * p12), p20 + x * (p21 + x * p22), p30 + x * (p31 + x * p32),
            p40 + x * (p41 + x * p42), p50 + x * (p51 + x * p52),
        ]
        # bounds[m - 1] is settled by the first piece whose level exceeds m.
        level = values.index(max(values))
        while found < wanted and level > found:
            bounds[found] = 0.5 + left
            found += 1
        if found == wanted:
            break
    return bounds[0], bounds[1], bounds[2]


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
    lambda_hat1: where levels 2, 3, 4 tie three ways, on (eps, lambda_hat2 -
        eps); absent, like the other thresholds, once lambda_hat2 leaves no
        such bracket (v_B within about 5e-6 of 1).
    lambda_hat3: where levels 1, 2, 3 tie three ways, on (eps, 1 - eps).
    Each three-way tie is a root of one polynomial (see _three_way_tie), and
    each knee is the h of its tie.
    """
    eps = 1e-6
    polys = _profit_polys(v_B)
    lambda_hat2 = _tie_lambda(polys, 1.0, 3, 4)
    tie1 = None
    if lambda_hat2 is not None and eps < lambda_hat2 - eps:
        tie1 = _three_way_tie(polys, 3, 4, 2, eps, lambda_hat2 - eps)
    tie3 = _three_way_tie(polys, 1, 2, 3, eps, 1.0 - eps)
    lambda_hat1, h_knee2 = tie1 if tie1 is not None else (None, None)
    lambda_hat3, h_knee1 = tie3 if tie3 is not None else (None, None)
    return _StructureConstants(lambda_hat1, lambda_hat2, lambda_hat3, h_knee1, h_knee2)


def _three_way_tie(
    polys: Polys,
    low: int,
    high: int,
    other: int,
    lam_lo: float,
    lam_hi: float,
) -> Optional[tuple[float, float]]:
    """(lambda, h) where levels low, high and other tie, lambda in [lam_lo, lam_hi].

    With (a1, b1) = P_low - P_high and (a2, b2) = P_low - P_other, both ties
    hold where a1(t) + lam * b1(t) = 0 = a2(t) + lam * b2(t).  Eliminating
    lam leaves R(t) = a2 b1 - a1 b2 = 0, a quartic in t = h - 0.5, with
    lam = -a1(t) / b1(t) = -a2(t) / b2(t).  Every root of R in (0, 0.5)
    whose lam lies in the bracket is a three-way tie; if several do, the
    smallest lam is taken.  None when there is none.
    """
    (a_low, b_low), (a_high, b_high), (a_other, b_other) = (
        polys[low - 1], polys[high - 1], polys[other - 1]
    )
    a1, b1 = _sub(a_low, a_high), _sub(b_low, b_high)
    a2, b2 = _sub(a_low, a_other), _sub(b_low, b_other)
    r = tuple(x - y for x, y in zip(_mul(a2, b1), _mul(a1, b2)))
    best = None
    for t in _interval_roots(r, 0.0, 0.5):
        if not 0.0 < t < 0.5:
            continue
        # Divide by the larger slope in lam, where an error in t moves lam
        # least.  Close to v_B = 1, a1 and b1 both shrink toward rounding
        # noise near h = 1: at v_B = 1 - 1e-6, -a1/b1 is 2e-10 off, and
        # within about 3e-10 of 1 R has roots there whose -a1/b1 is noise
        # but whose -a2/b2 lies above the bracket.
        slope1, slope2 = _eval(b1, t), _eval(b2, t)
        a, slope = (a1, slope1) if abs(slope1) >= abs(slope2) else (a2, slope2)
        if slope == 0.0:
            continue
        lam = -_eval(a, t) / slope
        if lam_lo <= lam <= lam_hi and (best is None or lam < best[0]):
            best = (lam, 0.5 + t)
    return best


def _lambda_bar(polys: Polys, h: float, consts: _StructureConstants) -> Optional[float]:
    """Entry point of the profit trough in lambda at fixed h.

    Below the first knee the trough begins where the full-coverage price
    (level 1) catches the partial-coverage price (level 2); in the middle
    band where level 2 catches level 3; at the top where level 3 catches the
    naive-good price (level 4).  Each pairwise profit difference is linear
    in lambda, so each is one linear root.
    """
    if h <= 0.5:
        return 0.0
    for knee, pair in ((consts.h_knee1, (1, 2)), (consts.h_knee2, (2, 3))):
        if knee is not None and h <= knee:
            root = _tie_lambda(polys, h, *pair)
            if root is not None:
                return root
    return _tie_lambda(polys, h, 3, 4)


@dataclass(frozen=True)
class ThresholdSet(Record):
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
    polys = _profit_polys(v)
    h_hat1, h_star, boundary3 = _level_boundaries(polys, lam, v)
    # Where the level-3 region is empty the two boundaries coincide, and one
    # probe serves both.
    below_star = _level_below(h_star, lam, v)
    below3 = below_star if boundary3 == h_star else _level_below(boundary3, lam, v)
    return ThresholdSet(
        h_star=h_star,
        h_hat1=h_hat1,
        h_hat2=h_star if below_star == 2 else None,
        h_hat3=boundary3 if below3 == 3 else None,
        lambda_hat1=consts.lambda_hat1,
        lambda_hat2=consts.lambda_hat2,
        lambda_hat3=consts.lambda_hat3,
        lambda_bar=_lambda_bar(polys, params.h, consts),
        v_bar=_V_BAR,
        h_underline=_h_underline(v),
        h_overline=_h_overline(v),
    )


def _level_below(boundary: float, lam: float, v_B: float) -> int:
    """The argmax level just below a level boundary (1e-8 below, at least 0.5).

    A boundary is kept only if the level it bounds actually occurs below it.
    With lambda past a knee the region for an intermediate level is empty;
    its boundary then coincides with a lower level's and is reported absent.
    """
    return _argmax_level(max(0.5, boundary - 1e-8), lam, v_B)


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
    """The precision h at which the prior-model profit switches from
    falling to rising: where the good-signal price's profit catches full
    coverage."""
    params = ModelParams(h=0.5, lam=0.0, v_B=v_B, mu0=mu0)

    def diff(h: float) -> float:
        (p_low, p_high), (_, wb), _, _ = _naive_set(h, params.v_B, params.gamma, params.mu0)
        return p_high * wb - p_low

    return bisect_threshold(diff, (0.5, 1.0))


def prior_mu_lower(h: float, v_B: float) -> float:
    """Smallest prior above which pooling survives for every larger prior.

    The existence margin profit_B - v_B can dip negative on an interior
    band of priors (the high-price region with thin good-signal demand).
    There is no closed form; locate the margin's minimum over 2001 evenly
    spaced priors in one naive_candidates call (the first minimum, as
    np.argmin picks it), then bisect on the increasing side.  Returns 0.0
    when pooling holds for every prior.

    Within an ulp or two of v_B = 1, rounding decides existence.  At h = 0.5
    and v_B = 1 - 2**-53 the candidate's profit_B lands one ulp below, on or
    one ulp above v_B as mu0 moves, so this returns 0.295; at
    v_B = 1 - 2**-52 no margin is negative and it returns 0.0.
    """
    params = ModelParams(h=h, lam=0.0, v_B=v_B)

    def margin(mu0: float) -> float:
        # bisect_threshold passes floats in [0, 1], which ModelParams accepts as is.
        return _argmax(*_naive_set(params.h, params.v_B, params.gamma, mu0)).profit_B - params.v_B

    grid = np.arange(2001) / 2000
    margins = naive_candidates(params.h, params.v_B, params.gamma, grid)[3] - params.v_B
    if (margins >= 0.0).all():
        return 0.0
    root = bisect_threshold(margin, (float(grid[np.argmin(margins)]), 1.0))
    assert root is not None  # margin at mu0=1 is 1 - v_B > 0
    return root


# ---------------------------------------------------------------------------
# Market comparison and sweep classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport(Record):
    """Profit comparison between a fully naive and a fully sophisticated
    market at identical (h, v_B, gamma, mu0)."""

    preferred_by_G: str  # "naive" | "sophisticated" | "equal"
    preferred_by_B: str
    profit_gaps: dict  # quality -> naive profit minus sophisticated profit
    naive: EquilibriumOutcome
    sophisticated: EquilibriumOutcome


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
    naive_key, soph_key = ((p.h, p.v_B, p.gamma, p.mu0) for p in (params_naive, params_soph))
    if naive_key != soph_key:
        raise ParameterError(
            "compare_markets needs identical (h, v_B, gamma, mu0) across markets; "
            f"got {naive_key} and {soph_key}"
        )

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


def classify_equilibrium(
    params: ModelParams, candidate: Optional[PoolingCandidate] = None
) -> tuple[str, EquilibriumOutcome]:
    """Region label for sweeps: R1..R4, 'mixed', or 'none'.

    Every variant routes through solve_pooling, which is passed `candidate`;
    where pooling fails in the baseline's fully naive market (lam = 0), the
    solve_mixed equilibrium is reported if it exists.
    """
    outcome = solve_pooling(params, candidate)
    if outcome.kind == KIND_NONE and params.lam == 0.0 and params.is_base_variant:
        mixed = solve_mixed(params)
        if mixed.kind == KIND_MIXED:
            outcome = mixed
    if outcome.kind == KIND_POOLING:
        assert outcome.region is not None
        return outcome.region, outcome
    return outcome.kind, outcome
