"""Reference candidate argmax: sort the six candidates, look each one up again.

This is the formulation `splab.equilibrium.best_pooling_candidate` used
before it read the rungs' profits straight off the ladder.  The five WTP
rungs and v_B are sorted by (price, level, v_B last), each candidate's
demand is looked up with `expected_demand`, and the first strictly larger
profit_G wins, so ties go to the lower price and then the lower level.  It
lives in the tests only, where the fast argmax must equal it bit for bit.
"""

from __future__ import annotations

from typing import Optional

from splab import ModelParams, Quality, build_wtp_schedule, expected_demand
from splab.equilibrium import PoolingCandidate


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
