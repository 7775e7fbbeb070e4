"""Unit tests for the brute-force oracle: grid argmax, Monte Carlo, bisection."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_oracle as reference
from splab import (
    GridSpec,
    ModelParams,
    ParameterError,
    Quality,
    best_pooling_candidate,
    bisect_threshold,
    build_wtp_schedule,
    check_no_separation,
    demand_by_enumeration,
    expected_demand,
    grid_argmax,
    simulate_market,
)
from splab import oracle
from splab.oracle import BISECT_TOL, consumer_cells

hs = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
lams = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
vbs = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)

# The full (h, lambda, v_B, gamma, mu0) box, with its edges and values that
# land on mesh points (v_B = 0 and 0.25, h = 0.5 and 1) drawn often.
box = st.builds(
    ModelParams,
    h=st.one_of(st.sampled_from([0.5, 0.75, 1.0]), hs),
    lam=st.one_of(st.sampled_from([0.0, 1.0]), lams),
    v_B=st.one_of(st.sampled_from([0.0, 0.25, 0.5]), vbs),
    gamma=st.one_of(st.just(0.5), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    mu0=st.one_of(st.just(0.5), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)


@st.composite
def grids(draw):
    """The default grid, fixed grids that cut off some candidates, or any grid.

    GridSpec(0.999, 1.0, 3) holds no candidate below the top WTP, and
    GridSpec(0.25, 1.0, 301) starts on v_B = 0.25, often also a cell's WTP.
    """
    fixed = [
        GridSpec(),
        GridSpec(0.3, 0.8, 5001),
        GridSpec(0.0, 0.5, 1001),
        GridSpec(0.6, 1.0, 7),
        GridSpec(0.999, 1.0, 3),
        GridSpec(0.25, 1.0, 301),
    ]
    if draw(st.booleans()):
        return draw(st.sampled_from(fixed))
    ends = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True))
    return GridSpec(min(ends), max(ends), draw(st.integers(2, 3000)))


@st.composite
def sim_cases(draw):
    """(params, price, draws, seed) over the full box, with prices often on a
    cell's WTP (the buy rule's edge) and the two extreme seeds often."""
    params = draw(box)
    wtps = [wtp for _, wtp in consumer_cells(params, Quality.G)]
    wtps += [wtp for _, wtp in consumer_cells(params, Quality.B)]
    price = draw(st.one_of(st.sampled_from(wtps), st.floats(0.0, 1.0)))
    draws = draw(st.integers(1, 3000))
    seed = draw(st.one_of(st.sampled_from([0, 2**128 - 1]), st.integers(0, 2**128 - 1)))
    return params, price, draws, seed


# Points whose fields are signed zeros: ModelParams equates each with its
# twins, where a zero field has the other sign, so they share one cell table.
_SIGNED_ZEROS = [
    ModelParams(h=h, lam=lam, v_B=v_B, mu0=mu0)
    for h in (0.5, 1.0)
    for lam in (0.0, -0.0)
    for v_B in (0.0, -0.0)
    for mu0 in (0.0, -0.0)
]


def signed_zero_examples(test):
    """`test` with an @example(params=...) for each point of _SIGNED_ZEROS."""
    for params in _SIGNED_ZEROS:
        test = example(params=params)(test)
    return test


# A point off the baseline, and the price of one of its WTPs, for the draw
# counts around the 2^16-draw chunk and the 2^20-draw Philox batch.
_EDGE = ModelParams(h=0.8, lam=0.5, v_B=0.1, gamma=0.3, mu0=0.6)
_EDGE_PRICE = consumer_cells(_EDGE, Quality.G)[1][1]

_POINT = ModelParams(h=0.8, lam=0.5, v_B=0.1)
_QUALITY_TAKERS = {
    "consumer_cells": lambda q: consumer_cells(_POINT, q),
    "demand_by_enumeration": lambda q: demand_by_enumeration(_POINT, q, 0.55),
    "grid_argmax": lambda q: grid_argmax(_POINT, q),
    "simulate_market": lambda q: simulate_market(_POINT, q, 0.55, 10, 0),
    "expected_demand": lambda q: expected_demand(build_wtp_schedule(_POINT), 0.55, q),
}


@pytest.mark.parametrize("name", list(_QUALITY_TAKERS))
@pytest.mark.parametrize("quality", ["G", "B", None])
def test_quality_must_be_a_member(name, quality):
    # Strings are not accepted either: "G" must not pass for Quality.G, nor
    # anything else for Quality.B.
    with pytest.raises(ParameterError):
        _QUALITY_TAKERS[name](quality)


class TestCellTable:
    @settings(max_examples=200, deadline=None)
    @given(params=box)
    @signed_zero_examples
    def test_consumer_cells_equal_enum_reference(self, params):
        # repr, not ==, so a -0.0 mass or WTP cannot pass for 0.0.
        for quality in Quality:
            assert repr(consumer_cells(params, quality)) == repr(
                reference.consumer_cells(params, quality)
            )

    def test_one_table_per_point(self):
        oracle._cell_table.cache_clear()
        params = ModelParams(h=0.81, lam=0.37, v_B=0.12)
        grid_argmax(params, Quality.G)
        grid_argmax(params, Quality.B)
        demand_by_enumeration(params, Quality.B, np.array([0.2, 0.5, params.v_B]))
        simulate_market(params, Quality.G, 0.5, draws=10, seed=0)
        check_no_separation(params)
        info = oracle._cell_table.cache_info()
        assert (info.misses, info.hits) == (1, 5)

    @pytest.mark.parametrize("h", [0.5, 1.0])
    def test_signed_zero_twins_read_a_shared_entry(self, h):
        # Whichever twin fills the shared entry first, every reader of the
        # cached table gives each twin exactly what the reference gives it.
        twins = [params for params in _SIGNED_ZEROS if params.h == h]
        grids = [GridSpec(), GridSpec(0.0, 0.5, 1001), GridSpec(-0.0, 0.3, 7)]
        prices = np.array([-0.0, 0.0, 0.25, 0.5, 1.0])

        def outputs(oracle_module, params):
            out = []
            for quality in Quality:
                out += [oracle_module.grid_argmax(params, quality, grid) for grid in grids]
                out.append(oracle_module.demand_by_enumeration(params, quality, prices).tolist())
                out += [
                    oracle_module.simulate_market(params, quality, price, 500, 7).to_json()
                    for price in (-0.0, 0.0, 0.5)
                ]
            out.append(oracle_module.check_no_separation(params).to_json())
            return repr(out)

        want = [outputs(reference, params) for params in twins]
        filled = set()
        for first in twins:
            oracle._cell_table.cache_clear()
            filled.add(repr(oracle._cell_table(first)[:3]))
            for params, expected in zip(twins, want):
                assert outputs(oracle, params) == expected
            assert oracle._cell_table.cache_info().misses == 1
        # The twins do fill the entry with different signs.
        assert len(filled) > 1


class TestEnumeration:
    @settings(max_examples=150)
    @given(h=hs, lam=lams, v=vbs, p=st.floats(0.0, 1.0))
    def test_matches_schedule_demand(self, h, lam, v, p):
        # Independent 8-cell summation agrees with the WTP-schedule route.
        params = ModelParams(h=h, lam=lam, v_B=v)
        sched = build_wtp_schedule(params)
        for quality in Quality:
            direct = float(demand_by_enumeration(params, quality, p))
            assert direct == pytest.approx(
                expected_demand(sched, p, quality), abs=1e-12
            )

    def test_vectorized_prices(self):
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        grid = np.linspace(0.0, 1.0, 11)
        out = demand_by_enumeration(params, Quality.G, grid)
        assert out.shape == grid.shape
        assert np.all(np.diff(out) <= 1e-15)  # demand is non-increasing in price

    def test_price_domain_enforced(self):
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        with pytest.raises(ParameterError):
            demand_by_enumeration(params, Quality.G, 1.2)

    @pytest.mark.parametrize("price", [math.nan, np.array([0.2, math.nan, 0.7])])
    def test_nan_price_rejected(self, price):
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        with pytest.raises(ParameterError):
            demand_by_enumeration(params, Quality.G, price)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0 + 2.0**-52, -1e-300])
    @pytest.mark.parametrize("at", [0, 3, 7])
    @pytest.mark.parametrize("shape", [(8,), (2, 4)])
    def test_any_price_off_the_domain_is_refused(self, bad, at, shape):
        # One bad price anywhere among in-range ones, first, inside or last.
        prices = np.linspace(0.0, 1.0, 8)
        prices[at] = bad
        for quality in Quality:
            with pytest.raises(ParameterError):
                demand_by_enumeration(_POINT, quality, prices.reshape(shape))
            with pytest.raises(ParameterError):
                demand_by_enumeration(_POINT, quality, bad)

    def test_empty_prices_give_an_empty_array(self):
        for quality in Quality:
            for prices in (np.array([]), np.empty((0, 3)), []):
                out = demand_by_enumeration(_POINT, quality, prices)
                assert isinstance(out, np.ndarray) and out.shape == np.shape(prices)

    def test_negative_zero_is_in_the_domain(self):
        for quality in Quality:
            everyone = demand_by_enumeration(_POINT, quality, 0.0)
            assert demand_by_enumeration(_POINT, quality, -0.0) == everyone
            out = demand_by_enumeration(_POINT, quality, np.array([-0.0, 0.0, 1.0]))
            assert out.tolist() == [everyone, everyone, 0.0]

    @pytest.mark.parametrize(
        "price", [0.55, 1, np.float64(0.55), np.float32(0.25), np.array(0.55), np.array(1)]
    )
    def test_a_scalar_price_gives_a_float(self, price):
        for quality in Quality:
            out = demand_by_enumeration(_POINT, quality, price)
            assert type(out) is float
            assert out == demand_by_enumeration(_POINT, quality, np.array([price]))[0]

    @settings(max_examples=200, deadline=None)
    @given(params=box, prices=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_equals_cell_by_cell_reference(self, params, prices):
        # Each price also at the WTPs and v_B themselves, where the steps change.
        wtps = [wtp for _, wtp in reference.consumer_cells(params, Quality.G)]
        prices = np.array(prices + wtps + [params.v_B])
        for quality in Quality:
            got = demand_by_enumeration(params, quality, prices)
            assert np.array_equal(got, reference.demand_by_enumeration(params, quality, prices))
            for p in prices[-3:]:
                assert demand_by_enumeration(params, quality, p) == (
                    reference.demand_by_enumeration(params, quality, p)
                )


class TestGridArgmax:
    def test_worked_example(self):
        params = ModelParams(h=0.7, lam=1.0, v_B=0.1)
        price, profit = grid_argmax(params, Quality.G)
        assert price == 0.55  # exact: candidate prices are injected into the grid
        assert profit == pytest.approx(0.4675, abs=1e-12)

    def test_agrees_with_candidate_search(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            params = ModelParams(
                h=float(rng.uniform(0.5, 1.0)),
                lam=float(rng.uniform(0.0, 1.0)),
                v_B=float(rng.uniform(0.0, 0.9)),
            )
            cand = best_pooling_candidate(params)
            price, profit = grid_argmax(params, Quality.G)
            assert price == cand.price
            assert profit == pytest.approx(cand.profit_G, abs=1e-12)

    def test_respects_grid_bounds(self):
        params = ModelParams(h=0.7, lam=1.0, v_B=0.1)
        price, _ = grid_argmax(params, Quality.G, grid=GridSpec(0.0, 0.5, 5001))
        assert price <= 0.5

    def test_rejects_bad_spec(self):
        params = ModelParams(h=0.7, lam=1.0, v_B=0.1)
        with pytest.raises(ParameterError):
            grid_argmax(params, Quality.G, grid=GridSpec(0.7, 0.2, 100))

    @pytest.mark.parametrize("points", [2.5, 100001.0, True, "5"])
    def test_points_must_be_an_int(self, points):
        # A float that equals an int would otherwise share its cached mesh.
        with pytest.raises(ParameterError):
            GridSpec(0.0, 1.0, points)

    def test_cached_mesh_is_read_only(self):
        mesh = oracle._mesh(GridSpec())
        assert mesh is oracle._mesh(GridSpec())
        with pytest.raises(ValueError):
            mesh[0] = 0.5

    @settings(max_examples=150, deadline=None)
    @given(params=box, grid=grids())
    @example(params=ModelParams(h=1.0, lam=1.0, v_B=0.25), grid=GridSpec())
    @example(params=ModelParams(h=0.5, lam=0.0, v_B=0.0), grid=GridSpec())
    @example(params=ModelParams(h=0.7, lam=1.0, v_B=0.1), grid=GridSpec(0.0, 0.5, 5001))
    # ModelParams admits -0.0: the lowest cell WTP is then 0.0 beside a -0.0
    # candidate v_B.
    @example(params=ModelParams(h=1.0, lam=0.0, v_B=-0.0), grid=GridSpec())
    @example(params=ModelParams(h=1.0, lam=-0.0, v_B=-0.0), grid=GridSpec())
    @example(params=ModelParams(h=1.0, lam=1.0, v_B=-0.0), grid=GridSpec(0.0, 0.5, 1001))
    # No candidate in range: every WTP lies below 0.999.
    @example(params=ModelParams(h=0.8, lam=0.5, v_B=0.1), grid=GridSpec(0.999, 1.0, 3))
    # price_min on a WTP: 0.55 is the worked example's candidate price.
    @example(params=ModelParams(h=0.7, lam=1.0, v_B=0.1), grid=GridSpec(0.55, 1.0, 46))
    # Rounding ties several mesh prices at the end of one demand step: the
    # first maximum for Q = B is 0.5499999999999999, not the step's last 0.55.
    @example(
        params=ModelParams(h=0.8, lam=0.5, v_B=0.1), grid=GridSpec(0.549999999999999, 0.55, 50)
    )
    # Three or more mesh prices tie at the maximum where the products are
    # subnormal: a tiny sophisticated share sells 4e-311 (G) or 1e-311 (B)
    # on the top step, and the mesh ends on its WTP 0.8200000000000001.
    # The ties end the mesh: 3 (G) and 4 (B) on the first grid, 7 and 10 on
    # the second, 2 and 3 on the third.  The first tied price is neither the
    # run's last price nor, for 3, 7 and 10 ties, one that doubling the step
    # back from it reaches.
    @example(
        params=ModelParams(h=0.8, lam=1e-310, v_B=0.1),
        grid=GridSpec(0.819999999999012, 0.8200000000000001, 21),
    )
    @example(
        params=ModelParams(h=0.8, lam=1e-310, v_B=0.1),
        grid=GridSpec(0.81999999999962, 0.8200000000000001, 21),
    )
    @example(
        params=ModelParams(h=0.8, lam=1e-310, v_B=0.1),
        grid=GridSpec(0.81999999999848, 0.8200000000000001, 21),
    )
    # Subnormal prices: a prior of 1e-320 or 4e-321 puts every WTP below
    # 1e-319, and 5 mesh prices of 6 tie under G on the first grid, 30 of 34
    # under B on the second.
    @example(
        params=ModelParams(h=0.6, lam=0.5, v_B=0.0, mu0=1e-320),
        grid=GridSpec(1.497e-320, 1.4995e-320, 6),
    )
    @example(
        params=ModelParams(h=0.9, lam=0.5, v_B=0.0, mu0=4e-321),
        grid=GridSpec(3.5854e-320, 3.6017e-320, 34),
    )
    def test_equals_union_grid_reference(self, params, grid):
        # repr, not ==, so a -0.0 price or profit cannot pass for 0.0.
        for quality in Quality:
            assert repr(grid_argmax(params, quality, grid)) == repr(
                reference.grid_argmax(params, quality, grid)
            )

    def test_default_grid_allocates_no_mesh_sized_buffer(self):
        # numpy reports its buffers to tracemalloc; scoring the whole mesh
        # would hold 800 KB of profits.
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        oracle._mesh(GridSpec())  # build the cached mesh outside the measurement
        tracemalloc.start()
        try:
            for quality in Quality:
                grid_argmax(params, quality)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


class TestSimulation:
    def test_everyone_buys_at_lowest_wtp(self):
        params = ModelParams(h=0.8, lam=0.0, v_B=0.1)
        report = simulate_market(params, Quality.G, 0.415, draws=100_000, seed=11)
        assert report.est_demand == 1.0
        assert report.se_demand == 0.0

    def test_nobody_buys_above_top_wtp(self):
        params = ModelParams(h=1.0, lam=1.0, v_B=0.1)
        report = simulate_market(params, Quality.B, 0.9, draws=100_000, seed=12)
        assert report.est_demand == 0.0

    def test_interior_point_within_four_se(self):
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        report = simulate_market(params, Quality.G, 0.55, draws=400_000, seed=13)
        assert abs(report.est_demand - 0.775) <= 4 * report.se_demand

    def test_profit_is_price_times_demand(self):
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        report = simulate_market(params, Quality.G, 0.55, draws=50_000, seed=14)
        assert report.est_profit == pytest.approx(0.55 * report.est_demand, abs=1e-15)

    def test_se_is_sample_std_over_sqrt_n(self):
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        n = 50_000
        report = simulate_market(params, Quality.G, 0.55, draws=n, seed=15)
        m = report.est_demand
        expected_se = math.sqrt(m * (1 - m) * n / (n - 1)) / math.sqrt(n)
        assert report.se_demand == pytest.approx(expected_se, rel=1e-12)

    def test_same_seed_byte_identical(self):
        params = ModelParams(h=0.73, lam=0.42, v_B=0.18)
        a = simulate_market(params, Quality.B, 0.31, draws=200_000, seed=99)
        b = simulate_market(params, Quality.B, 0.31, draws=200_000, seed=99)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize(
        "draws, seed", [(0, 1), (10.5, 1), (True, 1), (10, -1), (10, 1.0), (10, False), (10, 2**128)]
    )
    def test_rejects_bad_draws_and_seed(self, draws, seed):
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        with pytest.raises(ParameterError):
            simulate_market(params, Quality.G, 0.5, draws=draws, seed=seed)

    @settings(max_examples=150, deadline=None)
    @given(case=sim_cases())
    @example(case=(_EDGE, _EDGE_PRICE, 1, 2**128 - 1))
    @example(case=(_EDGE, _EDGE_PRICE, 2**16 - 1, 0))
    @example(case=(_EDGE, _EDGE_PRICE, 2**16, 2**128 - 1))
    @example(case=(_EDGE, _EDGE_PRICE, 2**16 + 1, 0))
    @example(case=(_EDGE, _EDGE_PRICE, 2**20, 7))
    @example(case=(_EDGE, _EDGE_PRICE, 2**20 + 1, 0))
    @example(case=(_EDGE, _EDGE_PRICE, 2**21 + 3, 2**128 - 1))
    def test_equals_batch_loop_reference(self, case):
        params, price, draws, seed = case
        for quality in Quality:
            got = simulate_market(params, quality, price, draws, seed)
            want = reference.simulate_market(params, quality, price, draws, seed)
            assert got.to_json() == want.to_json()

    def test_memory_does_not_grow_with_draws(self):
        # numpy reports its buffers to tracemalloc; one 2^20-draw batch of
        # uniforms alone would be 24 MB.
        params = ModelParams(h=0.8, lam=0.5, v_B=0.1)
        tracemalloc.start()
        try:
            simulate_market(params, Quality.G, 0.55, draws=4_000_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_different_seed_differs(self):
        params = ModelParams(h=0.73, lam=0.42, v_B=0.18)
        a = simulate_market(params, Quality.B, 0.5, draws=200_000, seed=1)
        b = simulate_market(params, Quality.B, 0.5, draws=200_000, seed=2)
        assert a.est_demand != b.est_demand


class TestBisect:
    def test_finds_linear_root(self):
        root = bisect_threshold(lambda x: x - 0.37, (0.0, 1.0))
        assert root == pytest.approx(0.37, abs=1e-9)

    def test_certificate_bound(self):
        # |f(root)| <= 10 * BISECT_TOL * scale for monotone f.
        for f, bracket in [
            (lambda x: x - 0.37, (0.0, 1.0)),
            (lambda x: math.exp(x) - 2.0, (0.0, 1.0)),
            (lambda x: x**3 - 0.2, (0.0, 1.0)),
        ]:
            root = bisect_threshold(f, bracket)
            scale = max(1.0, abs(f(bracket[0])), abs(f(bracket[1])))
            assert abs(f(root)) <= 10 * BISECT_TOL * scale

    def test_no_sign_change_returns_none(self):
        assert bisect_threshold(lambda x: x + 1.0, (0.0, 1.0)) is None

    def test_degenerate_bracket_rejected(self):
        with pytest.raises(ParameterError):
            bisect_threshold(lambda x: x, (0.3, 0.3))

    def test_non_monotone_probe_rejected(self):
        with pytest.raises(ParameterError):
            bisect_threshold(lambda x: x * x - 0.25, (-1.0, 1.0))

    def test_non_finite_bracket_rejected(self):
        with pytest.raises(ParameterError):
            bisect_threshold(lambda x: x, (0.0, float("nan")))


class TestNoSeparation:
    @pytest.mark.skipif(
        sys.version_info >= (3, 12), reason="the reference's builtin sum compensates from 3.12"
    )
    @settings(max_examples=100, deadline=None)
    @given(params=box)
    @signed_zero_examples
    def test_equals_builtin_sum_reference(self, params):
        assert check_no_separation(params).to_json() == (
            reference.check_no_separation(params).to_json()
        )

    @pytest.mark.parametrize(
        "h,lam,ulps_exp,possible",
        [
            (0.8, 0.5, 50, False),
            (1.0, 1.0, 53, False),
            (0.6, 0.0, 52, False),
            (0.8, 0.5, 53, True),
        ],
    )
    def test_prices_near_one_stay_above_v_B(self, h, lam, ulps_exp, possible):
        # A few ulps below 1, some of the 101 steps of (v_B, 1] round down to
        # v_B, where mimicking gains exactly 0; they are no revealing prices.
        # Separation stays possible only where the high type's deviation
        # gains exactly 0 too, as at (0.8, 0.5, 1 - 2^-53).
        params = ModelParams(h=h, lam=lam, v_B=1.0 - 2.0**-ulps_exp)
        report = check_no_separation(params)
        assert report.prices and all(p > params.v_B for p in report.prices)
        assert report.separation_possible is possible
        _, deviation = grid_argmax(params, Quality.G)
        assert (deviation > params.v_B) is not possible

    @settings(max_examples=30, deadline=None)
    @given(h=hs, lam=lams, v=st.floats(0.01, 0.95))
    def test_mimicry_is_always_profitable(self, h, lam, v):
        report = check_no_separation(ModelParams(h=h, lam=lam, v_B=v))
        assert not report.separation_possible
        assert report.min_margin > 0.0
        assert len(report.mimic_profits) == len(report.prices)
        assert all(v < p <= 1.0 + 1e-15 for p in report.prices)
