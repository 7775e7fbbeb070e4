"""Unit tests for WTP schedules, demand, and the piecewise profit p * D(p)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splab import (
    ModelParams,
    ParameterError,
    Quality,
    UnsupportedVariantError,
    build_wtp_schedule,
    demand_by_enumeration,
    expected_demand,
)

hs = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
lams = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
vbs = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
prices = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestSchedule:
    def test_worked_example(self):
        sched = build_wtp_schedule(ModelParams(h=0.8, lam=1.0, v_B=0.1))
        wtps = [lv.wtp for lv in sched.levels]
        masses = [lv.mass_G for lv in sched.levels]
        assert wtps == pytest.approx([0.28, 0.415, 0.55, 0.685, 0.82], abs=1e-12)
        assert masses == pytest.approx([0.1, 0.0, 0.5, 0.0, 0.4], abs=1e-12)

    def test_perfect_signal_naive_market(self):
        sched = build_wtp_schedule(ModelParams(h=1.0, lam=0.0, v_B=0.0))
        wtps = [lv.wtp for lv in sched.levels]
        assert wtps == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-15)

    @given(h=hs, lam=lams, v=vbs)
    def test_mass_conservation(self, h, lam, v):
        sched = build_wtp_schedule(ModelParams(h=h, lam=lam, v_B=v))
        assert abs(sum(lv.mass_G for lv in sched.levels) - 1.0) <= 1e-15
        assert abs(sum(lv.mass_B for lv in sched.levels) - 1.0) <= 1e-15

    @given(h=hs, lam=lams, v=vbs)
    def test_masses_mirror_between_qualities(self, h, lam, v):
        sched = build_wtp_schedule(ModelParams(h=h, lam=lam, v_B=v))
        fwd = [lv.mass_G for lv in sched.levels]
        rev = [lv.mass_B for lv in sched.levels][::-1]
        assert fwd == pytest.approx(rev, abs=1e-15)

    @given(h=st.floats(min_value=0.51, max_value=1.0), lam=lams, v=vbs)
    def test_wtp_strictly_ordered_above_half(self, h, lam, v):
        sched = build_wtp_schedule(ModelParams(h=h, lam=lam, v_B=v))
        wtps = [lv.wtp for lv in sched.levels]
        assert all(a < b for a, b in zip(wtps, wtps[1:]))

    @settings(max_examples=300)
    @given(
        h=st.one_of(st.sampled_from([0.5, 0.5 + 2**-53, 1.0 - 2**-53, 1.0]), hs),
        lam=st.one_of(st.sampled_from([0.0, 1.0]), lams),
        v=st.one_of(st.sampled_from([0.0, 0.22, 0.999]), vbs),
    )
    def test_wtp_never_decreases_up_the_ladder(self, h, lam, v):
        # best_pooling_candidate reads each rung's profit off its own
        # coverage, which is the demand at its WTP only on such a ladder.
        sched = build_wtp_schedule(ModelParams(h=h, lam=lam, v_B=v))
        wtps = [lv.wtp for lv in sched.levels]
        assert all(a <= b for a, b in zip(wtps, wtps[1:]))

    @given(h=hs, lam=lams, v=vbs)
    def test_dispersion_closed_form(self, h, lam, v):
        sched = build_wtp_schedule(ModelParams(h=h, lam=lam, v_B=v))
        spread = sched.levels[-1].wtp - sched.levels[0].wtp
        assert spread == pytest.approx((2 * h - 1) * (1 - v), abs=1e-12)

    def test_mass_shift_toward_extremes_in_h(self):
        # Raising precision moves good-quality mass up the ladder.
        grid = np.linspace(0.5, 1.0, 21)
        for lam in (0.0, 0.5, 1.0):
            tops, bottoms = [], []
            for h in grid:
                sched = build_wtp_schedule(ModelParams(h=float(h), lam=lam, v_B=0.1))
                tops.append(sched.levels[3].mass_G + sched.levels[4].mass_G)
                bottoms.append(sched.levels[0].mass_G + sched.levels[1].mass_G)
            assert all(b >= a - 1e-12 for a, b in zip(tops, tops[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(bottoms, bottoms[1:]))

    def test_collapses_at_half(self):
        sched = build_wtp_schedule(ModelParams(h=0.5, lam=0.4, v_B=0.2))
        wtps = [lv.wtp for lv in sched.levels]
        assert all(abs(w - 0.6) <= 1e-15 for w in wtps)

    def test_unsupported_variants(self):
        with pytest.raises(UnsupportedVariantError):
            build_wtp_schedule(ModelParams(h=0.8, lam=0.0, v_B=0.0, gamma=0.4))
        with pytest.raises(UnsupportedVariantError):
            build_wtp_schedule(ModelParams(h=0.8, lam=0.0, v_B=0.0, mu0=0.7))


class TestExpectedDemand:
    def test_worked_example(self):
        sched = build_wtp_schedule(ModelParams(h=0.8, lam=1.0, v_B=0.1))
        assert expected_demand(sched, 0.55, Quality.G) == pytest.approx(0.9, abs=1e-15)

    def test_full_coverage_at_lowest_wtp(self):
        sched = build_wtp_schedule(ModelParams(h=0.8, lam=0.5, v_B=0.1))
        p = sched.levels[0].wtp
        for quality in Quality:
            assert abs(expected_demand(sched, p, quality) - 1.0) <= 1e-15

    def test_zero_above_top_wtp(self):
        sched = build_wtp_schedule(ModelParams(h=0.8, lam=0.5, v_B=0.1))
        p = np.nextafter(sched.levels[-1].wtp, 1.0)
        for quality in Quality:
            assert expected_demand(sched, p, quality) == 0.0

    def test_price_domain_enforced(self):
        sched = build_wtp_schedule(ModelParams(h=0.8, lam=0.5, v_B=0.1))
        for bad in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                expected_demand(sched, bad, Quality.G)


class TestPiecewiseProfit:
    def test_multiplier_worked_example(self):
        sched = build_wtp_schedule(ModelParams(h=0.9, lam=0.5, v_B=0.0))
        assert expected_demand(sched, 0.5, Quality.B) == pytest.approx(0.425, abs=1e-12)

    @given(h=hs, lam=lams, v=vbs)
    def test_multipliers_match_closed_forms(self, h, lam, v):
        params = ModelParams(h=h, lam=lam, v_B=v)
        sched = build_wtp_schedule(params)
        good = (
            1.0,
            1 - (1 - h) * lam / 2,
            (1 + 2 * h) / 4 + lam / 4,
            (1 + 2 * h) / 4 - lam / 4,
            h * lam / 2,
        )
        bad = (
            1.0,
            1 - h * lam / 2,
            (3 - 2 * h) / 4 + lam / 4,
            (3 - 2 * h) / 4 - lam / 4,
            (1 - h) * lam / 2,
        )
        assert list(sched.coverage_G) == pytest.approx(list(good), abs=1e-12)
        assert list(sched.coverage_B) == pytest.approx(list(bad), abs=1e-12)

    # The ladder's profit p * D(p) against the eight-cell enumeration, which
    # shares the posteriors but not the masses or the step lookup.
    @settings(max_examples=200)
    @given(h=hs, lam=lams, v=vbs, p=prices)
    def test_exact_agreement_with_expected_demand(self, h, lam, v, p):
        params = ModelParams(h=h, lam=lam, v_B=v)
        sched = build_wtp_schedule(params)
        for quality in Quality:
            enumerated = demand_by_enumeration(params, quality, p)
            assert abs(p * expected_demand(sched, p, quality) - p * enumerated) <= 1e-12

    def test_exact_agreement_at_breakpoints(self):
        params = ModelParams(h=0.83, lam=0.41, v_B=0.17)
        sched = build_wtp_schedule(params)
        wtps = np.array([lv.wtp for lv in sched.levels])
        for quality in Quality:
            enumerated = demand_by_enumeration(params, quality, wtps)
            for p, demand in zip(wtps.tolist(), enumerated.tolist()):
                assert abs(p * expected_demand(sched, p, quality) - p * demand) <= 1e-12

    def test_degenerate_single_piece_at_half(self):
        sched = build_wtp_schedule(ModelParams(h=0.5, lam=0.3, v_B=0.2))
        # All breakpoints collapse; demand is one below 0.6 and zero above.
        assert expected_demand(sched, 0.59, Quality.G) == pytest.approx(1.0, abs=1e-15)
        assert expected_demand(sched, np.nextafter(0.6, 1.0), Quality.G) == 0.0


class TestSerialization:
    def test_schedule_round_trips_to_json(self):
        sched = build_wtp_schedule(ModelParams(h=0.8, lam=0.5, v_B=0.1))
        payload = sched.to_dict()
        assert len(payload["levels"]) == 5
        assert sched.to_json()  # non-empty, no exception
