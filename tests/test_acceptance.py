"""Acceptance suite: ten numbered criteria, one PASS/FAIL line each.

Every test evaluates its criterion exactly as stated and records the outcome
in the shared registry (the terminal summary prints the per-criterion lines).

The sophisticated-market boundary h*(1) that criteria 1 and 2 pin is the
root of its defining indifference 1 - h(1-v_B) = (1+h)/2 * (1+v_B)/2.
Multiplying out gives 3 - v_B = h(5 - 3*v_B), so h*(1) = (3-v_B)/(5-3*v_B)
(0.6170 at v_B = 0.1).  An earlier statement of these criteria quoted
(3-v_B)/(5-v_B), which drops the factor 3 on the h*v_B term and agrees with
the root only at v_B = 0; the bisection solver, the grid oracle's profit_G
minimum and the monotonicity criteria 3 and 4 all land on the root above.
"""

import functools
import math

import numpy as np

from conftest import SAMPLED_PRICES, note_price, record_criterion
from splab import (
    ModelParams,
    Quality,
    best_pooling_candidate,
    build_wtp_schedule,
    check_no_separation,
    classify_equilibrium,
    demand_by_enumeration,
    expected_demand,
    gamma_thresholds,
    gamma_switch,
    grid_argmax,
    hstar_prior,
    simulate_market,
    solve_gamma,
    solve_mixed,
    solve_pooling,
    solve_prior,
    thresholds,
)

V_GRID_STEP = 0.01


def criterion(num):
    """Record the (passed, detail) outcome, then assert it."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                passed, detail = fn()
            except Exception as exc:
                record_criterion(num, False, f"crashed: {exc!r}")
                raise
            record_criterion(num, passed, detail)
            assert passed, f"criterion {num}: {detail}"

        return wrapper

    return deco


def _vbar() -> float:
    return thresholds(ModelParams(h=0.7, lam=0.0, v_B=0.1)).v_bar


@criterion(1)
def test_criterion_01_corollary_boundaries():
    """Bisected h*(1) vs (3-v)/(5-3v), h*(0) vs its radical, and h*(1)<h*(0)."""
    bad_soph, bad_naive, bad_order = [], [], []
    for k in range(20):
        v = k / 100.0
        star1 = thresholds(ModelParams(h=0.7, lam=1.0, v_B=v)).h_star
        star0 = thresholds(ModelParams(h=0.7, lam=0.0, v_B=v)).h_star
        closed1 = (3 - v) / (5 - 3 * v)
        closed0 = (-3 + v + math.sqrt((3 - v) ** 2 + (1 - v) * (11 + v))) / (
            2 * (1 - v)
        )
        if abs(star1 - closed1) > 1e-9:
            bad_soph.append(v)
        if abs(star0 - closed0) > 1e-9:
            bad_naive.append(v)
        if not star1 < star0:
            bad_order.append(v)
    if not (bad_soph or bad_naive or bad_order):
        return True, "both closed forms and h*(1) < h*(0) hold at all 20 points"
    return False, (
        f"h*(1) vs (3-v)/(5-3v) fails at {len(bad_soph)}/20, h*(0) radical "
        f"fails at {len(bad_naive)}/20, ordering fails at {len(bad_order)}/20"
    )


@criterion(2)
def test_criterion_02_region_map_geometry():
    """51x51 map at v_B = 0.1: scan ordering and the two boundary locations."""
    v = 0.1
    hs = np.linspace(0.5, 1.0, 51)
    lams = np.linspace(0.0, 1.0, 51)
    step = float(hs[1] - hs[0])
    labels = {}
    for lam in lams:
        for h in hs:
            label, out = classify_equilibrium(
                ModelParams(h=float(h), lam=float(lam), v_B=v)
            )
            labels[(float(h), float(lam))] = label
            note_price(out.price, v)
            note_price(out.low_price, v)

    problems = []
    for lam in lams:
        scan = [labels[(float(h), float(lam))] for h in hs]
        regions = [x for x in scan if x.startswith("R")]
        dedup = [x for i, x in enumerate(regions) if i == 0 or regions[i - 1] != x]
        if dedup != sorted(dedup):
            problems.append(f"scan order broken at lambda={lam:.2f}: {dedup}")

    scan_top = [labels[(float(h), 1.0)] for h in hs]
    b_top = float(hs[max(i for i, x in enumerate(scan_top) if x == "R1")])
    if abs(b_top - 0.61702) > step + 1e-12:
        problems.append(
            f"lambda=1 R1 boundary at h={b_top:.2f}, not (3-v)/(5-3v) = 0.61702 "
            f"+- {step:.2f}"
        )

    scan_bot = [labels[(float(h), 0.0)] for h in hs]
    b_bot = float(hs[max(i for i, x in enumerate(scan_bot) if x in ("R1", "R2"))])
    if abs(b_bot - 0.7720) > step + 1e-12:
        problems.append(f"lambda=0 full-coverage boundary at h={b_bot:.2f}")

    if not problems:
        return True, "scan ordering and both boundaries hold on the 51x51 grid"
    return False, "; ".join(problems)


@criterion(3)
def test_criterion_03_profit_shape_in_h():
    """200 draws: profit_G single-switch U in h at h*(lambda); profit_B falls."""
    rng = np.random.default_rng(301)
    vbar = _vbar()
    hg = np.linspace(0.5, 1.0, 101)
    step = float(hg[1] - hg[0])
    violations = 0
    for _ in range(200):
        lam = float(rng.uniform(0.0, 1.0))
        v = float(rng.uniform(0.0, vbar))
        outs = [solve_pooling(ModelParams(h=float(h), lam=lam, v_B=v)) for h in hg]
        if any(o.kind != "pooling" for o in outs):
            violations += 1
            continue
        for o in outs:
            note_price(o.price, v)
        pg = np.array([o.profit_G for o in outs])
        pb = np.array([o.profit_B for o in outs])
        i_min = int(np.argmin(pg))
        if np.any(np.diff(pg[: i_min + 1]) > 1e-12):
            violations += 1
        if np.any(np.diff(pg[i_min:]) < -1e-12):
            violations += 1
        star = thresholds(ModelParams(h=0.7, lam=lam, v_B=v)).h_star
        switch_interior = 0 < i_min < len(hg) - 1
        if switch_interior and abs(float(hg[i_min]) - star) > step + 1e-9:
            violations += 1
        if not switch_interior and not (star <= hg[1] or star >= hg[-2]):
            violations += 1
        if np.any(np.diff(pb) > 1e-12):
            violations += 1
    if violations == 0:
        return True, "0 violations across 200 h-profiles"
    return False, f"{violations} violations across 200 h-profiles"


@criterion(4)
def test_criterion_04_profit_shape_in_lambda():
    """200 draws: profit_G falls up to lambda_bar(h), then rises iff h >= h*(1)."""
    rng = np.random.default_rng(401)
    vbar = _vbar()
    lg = np.linspace(0.0, 1.0, 101)
    violations = 0
    for _ in range(200):
        h = float(rng.uniform(0.5, 1.0))
        v = float(rng.uniform(0.0, vbar))
        outs = [solve_pooling(ModelParams(h=h, lam=float(l), v_B=v)) for l in lg]
        if any(o.kind != "pooling" for o in outs):
            violations += 1
            continue
        for o in outs:
            note_price(o.price, v)
        pg = np.array([o.profit_G for o in outs])
        lbar = thresholds(ModelParams(h=h, lam=0.5, v_B=v)).lambda_bar
        star1 = thresholds(ModelParams(h=h, lam=1.0, v_B=v)).h_star
        below = pg[lg <= lbar + 1e-9]
        above = pg[lg >= lbar - 1e-9]
        if below.size and np.any(np.diff(below) > 1e-12):
            violations += 1
        if h >= star1:
            if np.any(np.diff(above) < -1e-12):
                violations += 1
        elif above.size and float(np.ptp(above)) > 1e-12:
            violations += 1
    if violations == 0:
        return True, "0 violations across 200 lambda-profiles"
    return False, f"{violations} violations across 200 lambda-profiles"


@criterion(5)
def test_criterion_05_mixing_band():
    """Non-existence band at h=1 is exactly (0.2, 0.25); mixing fills it."""
    problems = []
    for k in range(150, 251):
        v = k / 1000.0
        pool = solve_pooling(ModelParams(h=1.0, lam=0.0, v_B=v))
        mix = solve_mixed(ModelParams(h=1.0, lam=0.0, v_B=v))
        note_price(pool.price, v)
        inside = 0.200 < v < 0.250
        if k < 250 and (pool.kind == "none") != inside:
            problems.append(f"pooling existence wrong at v={v:.3f} ({pool.kind})")
        if inside:
            if mix.kind != "mixed" or not 0.0 < mix.alpha < 1.0:
                problems.append(f"no interior mixing at v={v:.3f}")
                continue
            note_price(mix.price, v)
            note_price(mix.low_price, v)
            if abs(mix.profit_B - v) > 1e-12:
                problems.append(f"low-type profit off outside option at v={v:.3f}")
            residual = abs(mix.price * (3 - 2 * 1.0) / 4 - v)
            if residual > 1e-12:
                problems.append(f"indifference residual {residual:.2e} at v={v:.3f}")
        elif mix.kind == "mixed":
            problems.append(f"mixing claimed feasible at v={v:.3f}")

    # profit_G = (1+2h) v / (3-2h), increasing in h over the feasible band.
    for v in (0.21, 0.24):
        profits = []
        for h in np.linspace(0.5, 1.0, 201):
            out = solve_mixed(ModelParams(h=float(h), lam=0.0, v_B=v))
            if out.kind != "mixed":
                continue
            expected = (1 + 2 * h) * v / (3 - 2 * h)
            if abs(out.profit_G - expected) > 1e-12:
                problems.append(f"profit_G formula off at (h={h:.3f}, v={v})")
            profits.append(out.profit_G)
        if len(profits) < 5 or any(b <= a for a, b in zip(profits, profits[1:])):
            problems.append(f"profit_G not increasing across the band at v={v}")

    if not problems:
        return True, "band (0.2, 0.25) exact; mixing interior and indifferent"
    return False, "; ".join(problems[:4])


@criterion(6)
def test_criterion_06_solver_oracle_agreement():
    """Grid argmax matches the solver exactly; the ladder's profit p*D(p)
    matches p times the eight-cell enumeration's demand."""
    rng = np.random.default_rng(601)
    mismatches = 0
    for _ in range(1000):
        params = ModelParams(
            h=float(rng.uniform(0.5, 1.0)),
            lam=float(rng.uniform(0.0, 1.0)),
            v_B=float(rng.uniform(0.0, 0.95)),
        )
        cand = best_pooling_candidate(params)
        price, _ = grid_argmax(params, Quality.G)
        if price != cand.price:
            mismatches += 1
        out = solve_pooling(params)
        if out.kind == "pooling":
            note_price(out.price, params.v_B)
            if out.price != price:
                mismatches += 1

    worst = 0.0
    for _ in range(25_000):
        params = ModelParams(
            h=float(rng.uniform(0.5, 1.0)),
            lam=float(rng.uniform(0.0, 1.0)),
            v_B=float(rng.uniform(0.0, 0.95)),
        )
        sched = build_wtp_schedule(params)
        for quality in Quality:
            prices = rng.uniform(0.0, 1.0, size=2)
            enumerated = demand_by_enumeration(params, quality, prices)
            for p, demand in zip(prices.tolist(), enumerated.tolist()):
                gap = abs(p * expected_demand(sched, p, quality) - p * demand)
                worst = max(worst, gap)
    if mismatches == 0 and worst <= 1e-12:
        return True, (
            "1000/1000 exact argmax matches; max piecewise gap "
            f"{worst:.1e} over 100000 pairs"
        )
    return False, f"{mismatches} argmax mismatches; worst piecewise gap {worst:.2e}"


@criterion(7)
def test_criterion_07_separation_and_price_range():
    """No separating equilibrium anywhere; all sampled prices in [v_B, 1]."""
    rng = np.random.default_rng(701)
    witnesses = 0
    for _ in range(60):
        params = ModelParams(
            h=float(rng.uniform(0.5, 1.0)),
            lam=float(rng.uniform(0.0, 1.0)),
            v_B=float(rng.uniform(0.0, 0.95)),
        )
        report = check_no_separation(params)
        if report.separation_possible or report.min_margin <= 0.0:
            return False, f"separation witness failed at {params.to_dict()}"
        witnesses += 1
    out_of_range = [
        (p, v) for p, v in SAMPLED_PRICES if not (v <= p <= 1.0)
    ]
    if out_of_range:
        return False, f"{len(out_of_range)} sampled prices outside [v_B, 1]"
    return True, (
        f"{witnesses} mimicry witnesses valid; all {len(SAMPLED_PRICES)} "
        "sampled prices within [v_B, 1]"
    )


@criterion(8)
def test_criterion_08_precision_mix_statics():
    """Interval endpoints and the three gamma-profile shapes; profit_B falls."""
    problems = []
    lo, hi = gamma_thresholds()
    if abs(lo - (math.sqrt(5) - 1) / 2) > 1e-9:
        problems.append(f"lower endpoint {lo}")
    if abs(hi - (math.sqrt(5) - 1.5)) > 1e-9:
        problems.append(f"upper endpoint {hi}")

    gg = np.linspace(0.5, 0.995, 101)
    step = float(gg[1] - gg[0])

    def profile(h):
        outs = [
            solve_gamma(ModelParams(h=h, lam=0.0, v_B=0.0, gamma=float(g)))
            for g in gg
        ]
        for o in outs:
            note_price(o.price, 0.0)
        return outs

    out_a = profile(0.55)
    pg = [o.profit_G for o in out_a]
    if any(b > a + 1e-12 for a, b in zip(pg, pg[1:])) or not pg[0] > pg[-1]:
        problems.append("h=0.55 profile not decreasing")

    out_c = profile(0.68)
    pg = np.array([o.profit_G for o in out_c])
    i_min = int(np.argmin(pg))
    switch = gamma_switch(0.68)
    if np.any(np.diff(pg[: i_min + 1]) > 1e-12) or np.any(
        np.diff(pg[i_min:]) < -1e-12
    ):
        problems.append("h=0.68 profile not U-shaped")
    elif abs(float(gg[i_min]) - switch) > step + 1e-9:
        problems.append(
            f"h=0.68 switch at {gg[i_min]:.4f}, expected {switch:.4f}"
        )

    out_d = profile(0.90)
    pg = [o.profit_G for o in out_d]
    if any(b < a - 1e-12 for a, b in zip(pg, pg[1:])) or not pg[-1] > pg[0]:
        problems.append("h=0.90 profile not increasing")

    for h, outs in ((0.55, out_a), (0.68, out_c), (0.90, out_d)):
        pb = [o.profit_B for o in outs]
        if any(b > a + 1e-12 for a, b in zip(pb, pb[1:])) or not pb[0] > pb[-1]:
            problems.append(f"profit_B not decreasing at h={h}")

    if not problems:
        return True, "endpoints match radicals; all three shapes as stated"
    return False, "; ".join(problems)


@criterion(9)
def test_criterion_09_prior_extension():
    """Even-prior bit-equality with the base solver; U-shape at h*(mu0)."""
    rng = np.random.default_rng(901)
    for _ in range(100):
        params = ModelParams(
            h=float(rng.uniform(0.5, 1.0)),
            lam=0.0,
            v_B=float(rng.uniform(0.0, 0.9)),
        )
        if solve_prior(params).to_json() != solve_pooling(params).to_json():
            return False, f"even-prior outcome differs at {params.to_dict()}"

    hg = np.linspace(0.5, 1.0, 101)
    step = float(hg[1] - hg[0])
    v = 0.05
    for mu0 in (0.6, 0.7, 0.8):
        star = hstar_prior(v, mu0)
        outs = [
            solve_prior(ModelParams(h=float(h), lam=0.0, v_B=v, mu0=mu0))
            for h in hg
        ]
        for o in outs:
            note_price(o.price, v)
        pg = np.array([o.profit_G for o in outs])
        i_min = int(np.argmin(pg))
        if np.any(np.diff(pg[: i_min + 1]) > 1e-12) or np.any(
            np.diff(pg[i_min:]) < -1e-12
        ):
            return False, f"profile not single-switch at mu0={mu0}"
        if abs(float(hg[i_min]) - star) > step + 1e-9:
            return False, (
                f"switch at {hg[i_min]:.4f} but h*(mu0={mu0}) = {star:.4f}"
            )
    return True, "100/100 bit-identical at mu0=0.5; U-switch at h*(mu0) for all three priors"


@criterion(10)
def test_criterion_10_monte_carlo():
    """100 simulated triples within 4 SE of analytic demand; runs reproducible."""
    rng = np.random.default_rng(1001)
    triples = []
    for k in range(100):
        params = ModelParams(
            h=float(rng.uniform(0.5, 1.0)),
            lam=float(rng.uniform(0.0, 1.0)),
            v_B=float(rng.uniform(0.0, 0.95)),
        )
        quality = Quality.G if k % 2 == 0 else Quality.B
        price = float(rng.uniform(0.0, 1.0))
        triples.append((params, quality, price))

    outside = 0
    reports = []
    for k, (params, quality, price) in enumerate(triples):
        report = simulate_market(params, quality, price, draws=1_000_000, seed=k)
        reports.append(report)
        analytic = float(demand_by_enumeration(params, quality, price))
        gap = abs(report.est_demand - analytic)
        if report.se_demand == 0.0:
            if gap > 1e-12:
                outside += 1
        elif gap > 4.0 * report.se_demand:
            outside += 1

    replay_identical = all(
        simulate_market(t[0], t[1], t[2], draws=1_000_000, seed=k).to_json()
        == reports[k].to_json()
        for k, t in list(enumerate(triples))[:5]
    )
    if outside <= 1 and replay_identical:
        return True, (
            f"{100 - outside}/100 within 4 SE at 1e6 draws; replays byte-identical"
        )
    return False, (
        f"{outside} triples outside 4 SE; replay identical: {replay_identical}"
    )
