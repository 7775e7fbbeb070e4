"""The five-rung WTP ladder and the piecewise profit function it induces.

Demand is a step function of price: each rung of the ladder adds the mass of
consumers whose posterior sits at that rung.  Profit p * D(p) is therefore
piecewise linear with kinks exactly at the five WTP values, and the optimal
pooled price is always one of the rungs.
"""

import numpy as np

from splab import ModelParams, Quality, build_wtp_schedule, expected_demand

params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
sched = build_wtp_schedule(params)

print(f"params: h={params.h}, lambda={params.lam}, v_B={params.v_B}")
print(f"{'level':>5} {'consumer cell':>16} {'wtp':>7} {'mass|G':>7} {'mass|B':>7}")
for lv in sched.levels:
    print(f"{lv.level:>5} {lv.consumer_label:>16} {lv.wtp:7.4f} {lv.mass_G:7.4f} {lv.mass_B:7.4f}")

print()
print("coverage (demand) if priced at each rung:")
for k, lv in enumerate(sched.levels):
    print(
        f"  p = {lv.wtp:.4f}: D|G = {sched.coverage_G[k]:.4f}, "
        f"D|B = {sched.coverage_B[k]:.4f}, profit|G = {lv.wtp * sched.coverage_G[k]:.4f}"
    )

grid = np.linspace(0.0, 1.0, 2001)
profits = np.array([p * expected_demand(sched, p, Quality.G) for p in grid.tolist()])
best = int(np.argmax(profits))
print()
print(f"grid scan of p*D(p): best price {grid[best]:.4f}, profit {profits[best]:.4f}")
print("(matches the best rung above -- the optimum never sits between kinks)")
