"""Reference candidate argmax: sort the six candidates, look each one up again.

This is the formulation `splab.equilibrium.best_pooling_candidate` used
before it read the rungs' profits straight off the ladder.  The five WTP
rungs and v_B are sorted by (price, level, v_B last), each candidate's
demand is looked up with `expected_demand`, and the first strictly larger
profit_G wins, so ties go to the lower price and then the lower level.  It
lives in the tests only, where the fast argmax must equal it bit for bit.

`naive_candidate` is the fully naive market's two-price argmax as
`splab.equilibrium._naive_candidate` computed it before its posteriors
became one body for floats and arrays: `_bayes` guards a zero denominator
with a branch.

`solve_mixed` is `splab.equilibrium.solve_mixed` as it priced the mixing
band before it read rung 4's coverages off the ladder: (3-2h)/4 and
(1+2h)/4 written out by hand.
"""

from __future__ import annotations

from typing import Optional

from splab import ModelParams, Quality, build_wtp_schedule, expected_demand
from splab.equilibrium import EquilibriumOutcome, PoolingCandidate
from splab.model import L, V_G


def best_pooling_candidate(params: ModelParams) -> PoolingCandidate:
    schedule = build_wtp_schedule(params)
    candidates: list[tuple[float, Optional[int]]] = [
        (lvl.wtp, lvl.level) for lvl in schedule.levels
    ]
    candidates.append((params.v_B, None))
    candidates.sort(key=lambda c: (c[0], 6 if c[1] is None else c[1]))

    best: Optional[PoolingCandidate] = None
    for price, level in candidates:
        pg = price * expected_demand(schedule, price, Quality.G)
        pb = price * expected_demand(schedule, price, Quality.B)
        if best is None or pg > best.profit_G:
            best = PoolingCandidate(price, level, pg, pb)
    assert best is not None
    return best


def _bayes(mu0: float, like_G: float, like_B: float) -> float:
    num = mu0 * like_G
    den = num + (1.0 - mu0) * like_B
    if den == 0.0:
        return mu0
    return num / den


def naive_candidate(params: ModelParams) -> PoolingCandidate:
    wb = params.gamma * params.h + (1.0 - params.gamma) * L
    p_low, p_high = (
        mu * V_G + (1.0 - mu) * params.v_B
        for mu in (_bayes(params.mu0, 1.0 - wb, wb), _bayes(params.mu0, wb, 1.0 - wb))
    )
    profit_high = p_high * wb
    if p_low >= profit_high:
        return PoolingCandidate(p_low, 2, p_low, p_low)
    return PoolingCandidate(p_high, 4, profit_high, p_high * (1.0 - wb))


def solve_mixed(params: ModelParams) -> EquilibriumOutcome:
    h, v = params.h, params.v_B
    lo = (3.0 - 2.0 * h) / (7.0 - 2.0 * h)
    hi = (3.0 - 2.0 * h) / 4.0
    if v <= 0.0:
        return EquilibriumOutcome(
            kind="none",
            note=f"mixing requires v_B in ({lo:.6g}, {hi:.6g}); got v_B={v}",
        )
    alpha = 1.0 / v - 4.0 / (3.0 - 2.0 * h)
    if not 0.0 < alpha < 1.0:
        return EquilibriumOutcome(
            kind="none",
            note=(
                f"mixing weight {alpha:.6g} falls outside (0, 1); the "
                f"feasibility band is v_B in ({lo:.6g}, {hi:.6g})"
            ),
        )
    p_bar = 4.0 * v / (3.0 - 2.0 * h)
    return EquilibriumOutcome(
        kind="mixed",
        price=p_bar,
        low_price=v,
        alpha=alpha,
        profit_G=p_bar * (1.0 + 2.0 * h) / 4.0,
        profit_B=v,
    )
