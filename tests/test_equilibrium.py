"""Unit tests for the equilibrium solvers and comparative-statics thresholds."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_candidate as reference
from splab import (
    ModelParams,
    ParameterError,
    Quality,
    UnsupportedVariantError,
    best_pooling_candidate,
    classify_equilibrium,
    compare_markets,
    gamma_switch,
    gamma_thresholds,
    grid_argmax,
    hstar_prior,
    prior_mu_lower,
    solve_gamma,
    solve_mixed,
    solve_pooling,
    solve_prior,
    thresholds,
    w_bar,
)
from splab.equilibrium import _naive_candidate

hs = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
lams = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
vbs = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
#: The ties at h = 1/2 (one WTP on every rung) and h = 1 (v_B on the bottom
#: rung), the lam corners, and v_B at 0 and near 1.
edge_hs = st.one_of(st.sampled_from([0.5, 0.5 + 2**-53, 1.0 - 2**-53, 1.0]), hs)
edge_lams = st.one_of(st.sampled_from([0.0, 1.0]), lams)
edge_vbs = st.one_of(st.sampled_from([0.0, 0.22, 0.999]), vbs)


class TestSolvePooling:
    def test_low_precision_full_coverage(self):
        out = solve_pooling(ModelParams(h=0.55, lam=1.0, v_B=0.1))
        assert out.kind == "pooling" and out.region == "R1"
        assert out.price == pytest.approx(0.505, abs=1e-12)

    def test_interior_region_three(self):
        out = solve_pooling(ModelParams(h=0.7, lam=1.0, v_B=0.1))
        assert out.region == "R3"
        assert out.price == pytest.approx(0.55, abs=1e-12)
        assert out.profit_G == pytest.approx(0.4675, abs=1e-12)

    def test_nonexistence_is_first_class(self):
        out = solve_pooling(ModelParams(h=1.0, lam=0.0, v_B=0.22))
        assert out.kind == "none"
        assert out.price is None and out.region is None
        assert out.note  # diagnostic explains why

    def test_tie_breaks_to_lowest_price_and_level(self):
        # At h = 1/2 every candidate earns the same profit.
        out = solve_pooling(ModelParams(h=0.5, lam=0.3, v_B=0.1))
        assert out.candidate_level == 1
        assert out.price == pytest.approx(0.55, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(h=hs, lam=lams, v=vbs)
    def test_existence_iff_low_type_clears_outside_option(self, h, lam, v):
        params = ModelParams(h=h, lam=lam, v_B=v)
        cand = best_pooling_candidate(params)
        out = solve_pooling(params)
        assert (out.kind == "pooling") == (cand.profit_B >= v)

    @settings(max_examples=100, deadline=None)
    @given(h=hs, lam=lams, v=vbs)
    def test_level_five_never_optimal(self, h, lam, v):
        cand = best_pooling_candidate(ModelParams(h=h, lam=lam, v_B=v))
        assert cand.level != 5

    @settings(max_examples=50, deadline=None)
    @given(h=hs, lam=lams, v=vbs)
    def test_candidate_agrees_with_grid_oracle(self, h, lam, v):
        params = ModelParams(h=h, lam=lam, v_B=v)
        cand = best_pooling_candidate(params)
        price, profit = grid_argmax(params, Quality.G)
        assert price == cand.price
        assert profit == pytest.approx(cand.profit_G, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(h=edge_hs, lam=edge_lams, v=edge_vbs)
    @example(h=0.5, lam=0.3, v=0.1)
    @example(h=1.0, lam=0.0, v=0.0)
    @example(h=1.0, lam=1.0, v=0.0)
    def test_candidate_equals_sorted_lookup_reference(self, h, lam, v):
        params = ModelParams(h=h, lam=lam, v_B=v)
        got = best_pooling_candidate(params)
        want = reference.best_pooling_candidate(params)
        assert repr(got) == repr(want)

    def test_rejects_extension_variants(self):
        with pytest.raises(UnsupportedVariantError):
            solve_pooling(ModelParams(h=0.8, lam=0.5, v_B=0.1, gamma=0.4))
        with pytest.raises(UnsupportedVariantError):
            solve_pooling(ModelParams(h=0.8, lam=0.5, v_B=0.1, mu0=0.6))

    def test_outcome_serialization_is_stable(self):
        out = solve_pooling(ModelParams(h=0.7, lam=1.0, v_B=0.1))
        payload = json.loads(out.to_json())
        assert list(payload.keys()) == [
            "kind", "price", "low_price", "alpha",
            "profit_G", "profit_B", "region", "candidate_level", "note",
        ]


def _mixing_edges() -> list[tuple[float, float]]:
    """(h, v_B) at the edges of the mixing band: h at 1/2 and 1 and one ulp
    inside each; v_B at each band end, one ulp either side of it, and at 0,
    the smallest subnormal and one ulp below 1."""
    points = []
    for h in (0.5, 0.5 + 2**-53, 1.0 - 2**-53, 1.0):
        for end in ((3.0 - 2.0 * h) / (7.0 - 2.0 * h), (3.0 - 2.0 * h) / 4.0):
            points += [(h, math.nextafter(end, 0.0)), (h, end), (h, math.nextafter(end, 1.0))]
        points += [(h, v) for v in (0.0, 5e-324, 1.0 - 2**-53)]
    return points


MIXING_EDGES = _mixing_edges()


class TestSolveMixed:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(edge_hs, st.one_of(
            # Over h in [1/2, 1] the band spans (0.2, 0.5).
            st.floats(min_value=0.2, max_value=0.5),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        )),
        min_size=1, max_size=20,
    ))
    @example(MIXING_EDGES)
    def test_equals_closed_form_reference(self, points):
        # Rung 4's coverages read off the ladder give the closed form's
        # floats at both signs of a zero lam; repr tells -0.0 from 0.0.
        fields = ("kind", "price", "low_price", "alpha", "profit_G", "profit_B")
        for h, v in points:
            for lam in (0.0, -0.0):
                got, want = (
                    [getattr(solve(ModelParams(h=h, lam=lam, v_B=v)), f) for f in fields]
                    for solve in (solve_mixed, reference.solve_mixed)
                )
                assert repr(got) == repr(want), (h, lam, v)

    def test_edges_reach_the_mixed_band(self):
        kinds = {solve_mixed(ModelParams(h=h, lam=0.0, v_B=v)).kind for h, v in MIXING_EDGES}
        assert kinds == {"mixed", "none"}

    def test_worked_example(self):
        out = solve_mixed(ModelParams(h=1.0, lam=0.0, v_B=0.22))
        assert out.kind == "mixed"
        assert out.price == pytest.approx(0.88, abs=1e-12)
        assert out.alpha == pytest.approx(1 / 0.22 - 4.0, abs=1e-12)
        assert out.profit_G == pytest.approx(0.66, abs=1e-12)
        assert out.profit_B == pytest.approx(0.22, abs=1e-15)
        assert out.low_price == pytest.approx(0.22, abs=1e-15)

    def test_infeasible_at_band_edges(self):
        assert solve_mixed(ModelParams(h=1.0, lam=0.0, v_B=0.2)).kind == "none"
        assert solve_mixed(ModelParams(h=0.6, lam=0.0, v_B=0.5)).kind == "none"

    def test_requires_naive_market(self):
        with pytest.raises(UnsupportedVariantError):
            solve_mixed(ModelParams(h=1.0, lam=0.5, v_B=0.22))

    @pytest.mark.parametrize("h,v", [(1.0, 0.22), (0.95, 0.23), (0.97, 0.21)])
    def test_pooled_price_consistent_with_updated_beliefs(self, h, v):
        # The naive buyer who sees a good valence and the pooled price holds
        # the mixing-adjusted posterior; the pooled price equals that WTP.
        params = ModelParams(h=h, lam=0.0, v_B=v)
        out = solve_mixed(params)
        wb = w_bar(params)
        mu = wb / (wb + out.alpha * (1 - wb))
        assert out.price == pytest.approx(mu + (1 - mu) * v, abs=1e-10)

    def test_low_type_indifference(self):
        # Low type earns its outside option at both prices it mixes over.
        params = ModelParams(h=0.98, lam=0.0, v_B=0.23)
        out = solve_mixed(params)
        high_branch = out.price * (3 - 2 * params.h) / 4
        assert abs(high_branch - params.v_B) <= 1e-12


class TestThresholds:
    def test_sophisticated_boundary_closed_form(self):
        # h*(1) solves 1 - h(1-v) = (1+h)/2 * (1+v)/2, i.e. (3-v)/(5-3v).
        for v in (0.0, 0.05, 0.1, 0.18):
            ts = thresholds(ModelParams(h=0.7, lam=1.0, v_B=v))
            assert ts.h_star == pytest.approx((3 - v) / (5 - 3 * v), abs=1e-9)

    def test_naive_boundary_radical(self):
        for v in (0.0, 0.1, 0.2):
            ts = thresholds(ModelParams(h=0.7, lam=0.0, v_B=v))
            root = (-3 + v + math.sqrt((3 - v) ** 2 + (1 - v) * (11 + v))) / (2 * (1 - v))
            assert ts.h_star == pytest.approx(root, abs=1e-9)

    def test_worked_values_at_point_one(self):
        ts = thresholds(ModelParams(h=0.7, lam=0.3, v_B=0.1))
        assert ts.h_underline == pytest.approx(2 / (3 - 0.1), abs=1e-9)
        assert ts.lambda_hat2 == pytest.approx(3 * 0.9 / 5.3, abs=1e-7)
        assert ts.v_bar == pytest.approx((4 * math.sqrt(2) - 5) / 7, abs=1e-7)
        assert ts.v_bar_prime == pytest.approx(5 / 9, abs=1e-12)

    def test_threshold_ordering_chain(self):
        for v in (0.0, 0.05, 0.1, 0.15, 0.2):
            star_soph = thresholds(ModelParams(h=0.7, lam=1.0, v_B=v))
            star_naive = thresholds(ModelParams(h=0.7, lam=0.0, v_B=v))
            chain = [
                0.5,
                star_soph.h_star,
                star_soph.h_underline,
                star_naive.h_star,
                star_naive.h_overline,
                1.0,
            ]
            assert all(a <= b + 1e-9 for a, b in zip(chain, chain[1:])), (v, chain)

    def test_structure_constants_ordered(self):
        ts = thresholds(ModelParams(h=0.7, lam=0.3, v_B=0.1))
        assert 0 < ts.lambda_hat1 < ts.lambda_hat2 < ts.lambda_hat3 < 1

    def test_lambda_bar_minimizes_profit(self):
        # lambda_bar need not match a grid argmin on flat valleys, but its
        # profit must be within tolerance of the grid minimum.
        for h in (0.55, 0.7, 0.95):
            ts = thresholds(ModelParams(h=h, lam=0.5, v_B=0.1))
            grid = np.linspace(0.0, 1.0, 401)
            profits = [
                solve_pooling(ModelParams(h=h, lam=float(l), v_B=0.1)).profit_G
                for l in grid
            ]
            at_bar = solve_pooling(ModelParams(h=h, lam=ts.lambda_bar, v_B=0.1)).profit_G
            assert at_bar <= min(profits) + 1e-10

    def test_overline_absent_for_large_v(self):
        ts = thresholds(ModelParams(h=0.7, lam=0.0, v_B=0.4))
        assert ts.h_overline is None

    def test_serializes(self):
        ts = thresholds(ModelParams(h=0.7, lam=0.3, v_B=0.1))
        payload = json.loads(ts.to_json())
        assert set(payload) >= {"h_star", "lambda_bar", "v_bar", "h_underline"}


class TestGammaExtension:
    def test_full_coverage_example(self):
        out = solve_gamma(ModelParams(h=0.9, lam=0.0, v_B=0.0, gamma=0.5))
        assert out.price == pytest.approx(0.7, abs=1e-12)
        assert out.profit_G == pytest.approx(0.49, abs=1e-12)

    def test_low_gamma_example(self):
        out = solve_gamma(ModelParams(h=0.55, lam=0.0, v_B=0.0, gamma=0.3))
        assert out.price == pytest.approx(0.485, abs=1e-12)

    def test_switch_point_closed_form(self):
        for h in (0.65, 0.68, 0.7):
            assert gamma_switch(h) == pytest.approx(
                (math.sqrt(5) - 2) / (2 * h - 1), abs=1e-9
            )

    def test_interval_endpoints(self):
        lo, hi = gamma_thresholds()
        assert lo == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-9)
        assert hi == pytest.approx(math.sqrt(5) - 1.5, abs=1e-9)

    def test_requires_gamma_variant_preconditions(self):
        with pytest.raises(UnsupportedVariantError):
            solve_gamma(ModelParams(h=0.9, lam=0.5, v_B=0.0, gamma=0.4))
        # A positive v_B in the naive market is solved, as the oracle prices it.
        params = ModelParams(h=0.9, lam=0.0, v_B=0.1, gamma=0.4)
        out = solve_gamma(params)
        assert out.kind == "pooling"
        assert out.price == grid_argmax(params, Quality.G)[0]


class TestPriorExtension:
    def test_full_coverage_example(self):
        out = solve_prior(ModelParams(h=0.6, lam=0.0, v_B=0.0, mu0=0.7))
        assert out.price == pytest.approx(0.65625, abs=1e-12)

    def test_degenerate_prior(self):
        out = solve_prior(ModelParams(h=0.6, lam=0.0, v_B=0.0, mu0=1.0))
        assert out.price == pytest.approx(1.0, abs=1e-15)

    def test_even_prior_delegates_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            params = ModelParams(
                h=float(rng.uniform(0.5, 1.0)), lam=0.0, v_B=float(rng.uniform(0.0, 0.9))
            )
            assert solve_prior(params).to_json() == solve_pooling(params).to_json()

    def test_switch_matches_even_prior_boundary(self):
        # At mu0 = 1/2 the prior-extension boundary is the naive-market one.
        star = hstar_prior(0.1, 0.5)
        ts = thresholds(ModelParams(h=0.7, lam=0.0, v_B=0.1))
        assert star == pytest.approx(ts.h_star, abs=1e-8)

    def test_prior_floor_detects_nonexistence(self):
        # For large enough v_B, low priors kill the pooling equilibrium.
        floor = prior_mu_lower(1.0, 0.22)
        assert 0.0 < floor < 1.0
        below = solve_prior(ModelParams(h=1.0, lam=0.0, v_B=0.22, mu0=max(0.0, floor - 0.05)))
        above = solve_prior(ModelParams(h=1.0, lam=0.0, v_B=0.22, mu0=min(1.0, floor + 0.05)))
        assert below.kind == "none" and above.kind == "pooling"

    def test_prior_floor_where_rounding_decides_existence(self):
        # The docstring's cases: at v_B = 1 - 2**-53 the margin dips one ulp
        # below 0 on a band of priors; at v_B = 1 - 2**-52 it never does.
        assert prior_mu_lower(0.5, 1.0 - 2**-53) == pytest.approx(0.295, abs=1e-12)
        assert prior_mu_lower(0.5, 1.0 - 2**-52) == 0.0

    def test_requires_prior_variant_preconditions(self):
        with pytest.raises(UnsupportedVariantError):
            solve_prior(ModelParams(h=0.6, lam=0.5, v_B=0.0, mu0=0.7))
        # A free gamma together with a free prior is solved, as the oracle prices it.
        params = ModelParams(h=0.6, lam=0.0, v_B=0.0, gamma=0.3, mu0=0.7)
        out = solve_prior(params)
        assert out.kind == "pooling"
        assert out.price == grid_argmax(params, Quality.G)[0]


class TestNaiveMarket:
    """solve_pooling in the fully naive market (lam = 0) at any gamma and mu0."""

    @settings(max_examples=200, deadline=None)
    @given(
        h=hs,
        v=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
        gamma=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        mu0=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_grid_oracle(self, h, v, gamma, mu0):
        params = ModelParams(h=h, lam=0.0, v_B=v, gamma=gamma, mu0=mu0)
        cand = _naive_candidate(params)
        price, profit = grid_argmax(params, Quality.G)
        assert cand.price == price
        assert abs(cand.profit_G - profit) <= 1e-12
        out = solve_pooling(params)
        assert (out.kind == "pooling") == (cand.profit_B >= v)
        if out.kind == "pooling":
            assert out.price == price

    @settings(max_examples=300, deadline=None)
    @given(h=st.floats(min_value=0.5 + 1e-6, max_value=1.0), v=vbs)
    def test_agrees_with_five_rung_ladder_at_baseline(self, h, v):
        # Away from h = 0.5, where rungs 1 and 2 share one price and the
        # ladder's tie-break picks level 1, the two-rung argmax is the
        # five-rung one.  profit_B is summed differently (1 - w_bar against
        # the ladder's suffix masses), so it may differ in the last bit.
        params = ModelParams(h=h, lam=0.0, v_B=v)
        naive = _naive_candidate(params)
        ladder = best_pooling_candidate(params)
        assert (naive.price, naive.level, naive.profit_G) == (
            ladder.price, ladder.level, ladder.profit_G
        )
        assert abs(naive.profit_B - ladder.profit_B) <= 1e-15


class TestCompareMarkets:
    def test_high_precision_favors_naive_seller(self):
        rep = compare_markets(
            ModelParams(h=0.95, lam=0.0, v_B=0.1),
            ModelParams(h=0.95, lam=1.0, v_B=0.1),
        )
        assert rep.preferred_by_G == "naive"
        assert rep.preferred_by_B == "sophisticated"

    def test_middle_precision_favors_sophisticated_seller(self):
        rep = compare_markets(
            ModelParams(h=0.72, lam=0.0, v_B=0.1),
            ModelParams(h=0.72, lam=1.0, v_B=0.1),
        )
        assert rep.preferred_by_G == "sophisticated"

    def test_uninformative_signal_is_a_wash(self):
        rep = compare_markets(
            ModelParams(h=0.5, lam=0.0, v_B=0.1),
            ModelParams(h=0.5, lam=1.0, v_B=0.1),
        )
        assert rep.preferred_by_G == "equal" and rep.preferred_by_B == "equal"

    def test_rejects_mismatched_parameters(self):
        with pytest.raises(ParameterError):
            compare_markets(
                ModelParams(h=0.7, lam=0.0, v_B=0.1),
                ModelParams(h=0.8, lam=1.0, v_B=0.1),
            )
        with pytest.raises(ParameterError):
            compare_markets(
                ModelParams(h=0.7, lam=0.3, v_B=0.1),
                ModelParams(h=0.7, lam=1.0, v_B=0.1),
            )
        # A prior mismatch alone is refused, and the message names every
        # compared field.
        with pytest.raises(ParameterError, match=r"\(h, v_B, gamma, mu0\).*0\.4"):
            compare_markets(
                ModelParams(h=0.7, lam=0.0, v_B=0.1, mu0=0.4),
                ModelParams(h=0.7, lam=1.0, v_B=0.1),
            )


class TestRegionStatics:
    """Per-region price/sales/profit movements in h for the naive market."""

    def test_full_coverage_region(self):
        # Below the boundary: price and profit fall with h, sales stay full.
        grid = np.linspace(0.55, 0.75, 9)
        outs = [solve_pooling(ModelParams(h=float(h), lam=0.0, v_B=0.1)) for h in grid]
        assert all(o.region == "R2" for o in outs)
        prices = [o.price for o in outs]
        assert all(b < a for a, b in zip(prices, prices[1:]))
        assert all(o.profit_G == pytest.approx(o.price, abs=1e-12) for o in outs)

    def test_top_group_region(self):
        # Above the boundary: price, good-type sales, and profit rise with h.
        grid = np.linspace(0.79, 0.99, 9)
        outs = [solve_pooling(ModelParams(h=float(h), lam=0.0, v_B=0.1)) for h in grid]
        assert all(o.region == "R4" for o in outs)
        for field in ("price", "profit_G"):
            vals = [getattr(o, field) for o in outs]
            assert all(b > a for a, b in zip(vals, vals[1:])), field
        profits_B = [o.profit_B for o in outs]
        assert all(b < a for a, b in zip(profits_B, profits_B[1:]))


class TestClassify:
    def test_routes_by_variant(self):
        label, out = classify_equilibrium(ModelParams(h=0.9, lam=0.0, v_B=0.0, gamma=0.3))
        assert out.kind == "pooling" and label.startswith("R")
        label, out = classify_equilibrium(ModelParams(h=0.6, lam=0.0, v_B=0.0, mu0=0.7))
        assert out.kind == "pooling"
        with pytest.raises(UnsupportedVariantError):
            classify_equilibrium(ModelParams(h=0.7, lam=0.5, v_B=0.1, mu0=0.6))

    def test_mixed_fallback_in_naive_market(self):
        label, out = classify_equilibrium(ModelParams(h=1.0, lam=0.0, v_B=0.22))
        assert label == "mixed" and out.kind == "mixed"

    def test_none_is_terminal_elsewhere(self):
        label, out = classify_equilibrium(ModelParams(h=1.0, lam=0.5, v_B=0.1))
        assert label == "none" and out.kind == "none"
