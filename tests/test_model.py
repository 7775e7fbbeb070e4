"""Unit tests for the signal technology and posterior machinery."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splab import (
    ComparisonReport,
    ConsumerType,
    EquilibriumOutcome,
    ModelParams,
    ParameterError,
    Precision,
    Quality,
    SIGNALS,
    SeparationReport,
    Signal,
    SimReport,
    ThresholdSet,
    UnsupportedVariantError,
    Valence,
    WtpLevel,
    WtpSchedule,
    build_wtp_schedule,
    check_no_separation,
    compare_markets,
    posterior_naive,
    posterior_sophisticated,
    posterior_with_prior,
    signal_distribution,
    simulate_market,
    solve_pooling,
    thresholds,
    w_bar,
    wtp_from_posterior,
)
from splab.model import FIELD_RANGES, Record

GH = Signal(Valence.GOOD, Precision.HIGH)
BH = Signal(Valence.BAD, Precision.HIGH)
GL = Signal(Valence.GOOD, Precision.LOW)
BL = Signal(Valence.BAD, Precision.LOW)

hs = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
gammas = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
mu0s = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def base(h, lam=0.0, v_B=0.0, **kw):
    return ModelParams(h=h, lam=lam, v_B=v_B, **kw)


class TestSignalDistribution:
    def test_h08_good_quality(self):
        dist = signal_distribution(base(0.8), Quality.G)
        assert dist[GH] == pytest.approx(0.40, abs=1e-15)
        assert dist[BH] == pytest.approx(0.10, abs=1e-15)
        assert dist[GL] == pytest.approx(0.25, abs=1e-15)
        assert dist[BL] == pytest.approx(0.25, abs=1e-15)

    def test_uninformative_at_half(self):
        dist = signal_distribution(base(0.5), Quality.G)
        assert all(abs(p - 0.25) <= 1e-15 for p in dist.values())

    def test_perfect_high_signal_for_bad_quality(self):
        dist = signal_distribution(base(1.0), Quality.B)
        assert dist[BH] == pytest.approx(0.5, abs=1e-15)
        assert dist[GH] == 0.0

    @given(h=hs, gamma=gammas)
    def test_distribution_sums_to_one(self, h, gamma):
        for quality in Quality:
            dist = signal_distribution(base(h, gamma=gamma), quality)
            assert abs(sum(dist.values()) - 1.0) <= 1e-15


class TestPosteriors:
    def test_sophisticated_examples(self):
        p = base(0.8)
        assert posterior_sophisticated(p, GH) == pytest.approx(0.8, abs=1e-15)
        assert posterior_sophisticated(p, BL) == pytest.approx(0.5, abs=1e-15)

    def test_naive_examples(self):
        assert posterior_naive(base(0.8), Valence.GOOD) == pytest.approx(0.65, abs=1e-15)
        assert posterior_naive(base(0.9), Valence.BAD) == pytest.approx(0.30, abs=1e-15)
        assert posterior_naive(base(0.9, gamma=0.8), Valence.GOOD) == pytest.approx(0.82, abs=1e-15)

    def test_prior_weighted_naive(self):
        p = base(0.8, mu0=0.7)
        got = posterior_with_prior(p, ConsumerType.NAIVE, GH)
        assert got == pytest.approx(0.8125, abs=1e-12)

    def test_degenerate_priors_absorb(self):
        for signal in SIGNALS:
            for consumer in ConsumerType:
                assert posterior_with_prior(base(0.8, mu0=0.0), consumer, signal) == 0.0
                assert posterior_with_prior(base(0.8, mu0=1.0), consumer, signal) == 1.0

    @given(h=hs, gamma=gammas, mu0=mu0s)
    def test_posterior_is_martingale(self, h, gamma, mu0):
        # Unconditionally, the expected posterior equals the prior.
        params = base(h, gamma=gamma, mu0=mu0)
        dist_G = signal_distribution(params, Quality.G)
        dist_B = signal_distribution(params, Quality.B)
        for consumer in ConsumerType:
            mean = sum(
                (mu0 * dist_G[s] + (1 - mu0) * dist_B[s])
                * posterior_with_prior(params, consumer, s)
                for s in SIGNALS
            )
            assert mean == pytest.approx(mu0, abs=1e-12)

    @given(h=hs, gamma=gammas)
    def test_valence_symmetry_at_even_prior(self, h, gamma):
        # With a 50/50 prior the good and bad posteriors mirror each other.
        params = base(h, gamma=gamma)
        for prec in Precision:
            good = posterior_sophisticated(params, Signal(Valence.GOOD, prec))
            bad = posterior_sophisticated(params, Signal(Valence.BAD, prec))
            assert good + bad == pytest.approx(1.0, abs=1e-12)
        assert posterior_naive(params, Valence.GOOD) + posterior_naive(
            params, Valence.BAD
        ) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_h(self):
        grid = [0.5 + 0.05 * k for k in range(11)]
        soph = [posterior_sophisticated(base(h), GH) for h in grid]
        naive = [posterior_naive(base(h), Valence.GOOD) for h in grid]
        assert all(a < b for a, b in zip(soph, soph[1:]))
        assert all(a < b for a, b in zip(naive, naive[1:]))

    def test_everything_collapses_at_half(self):
        params = base(0.5, gamma=0.37)
        for s in SIGNALS:
            assert abs(posterior_sophisticated(params, s) - 0.5) <= 1e-15
        for valence in Valence:
            assert abs(posterior_naive(params, valence) - 0.5) <= 1e-15


class TestBeliefProfile:
    def test_eight_cells_and_naive_ignores_precision(self):
        # At h = 0.85 naive consumers impute w_bar = 0.675 to every signal.
        params = base(0.85)
        expected = {
            ConsumerType.SOPHISTICATED: {GH: 0.85, BH: 0.15, GL: 0.5, BL: 0.5},
            ConsumerType.NAIVE: {GH: 0.675, BH: 0.325, GL: 0.675, BL: 0.325},
        }
        for consumer in ConsumerType:
            for signal in SIGNALS:
                got = posterior_with_prior(params, consumer, signal)
                assert got == pytest.approx(expected[consumer][signal], abs=1e-15)
        for valence in Valence:
            hi = posterior_with_prior(params, ConsumerType.NAIVE, Signal(valence, Precision.HIGH))
            lo = posterior_with_prior(params, ConsumerType.NAIVE, Signal(valence, Precision.LOW))
            assert hi == lo


class TestWtpAndWbar:
    @given(h=hs, gamma=gammas)
    def test_w_bar_closed_form(self, h, gamma):
        params = base(h, gamma=gamma)
        assert w_bar(params) == pytest.approx(gamma * h + (1 - gamma) * 0.5, abs=1e-15)

    def test_wtp_endpoints(self):
        params = base(0.8, v_B=0.3)
        assert wtp_from_posterior(0.0, params) == pytest.approx(0.3, abs=1e-15)
        assert wtp_from_posterior(1.0, params) == pytest.approx(1.0, abs=1e-15)

    @given(mu=st.floats(0.0, 1.0), v=st.floats(0.0, 0.99))
    def test_wtp_is_linear_and_bounded(self, mu, v):
        params = base(0.8, v_B=v)
        w = wtp_from_posterior(mu, params)
        assert v - 1e-15 <= w <= 1.0 + 1e-15
        assert w == pytest.approx(mu + (1 - mu) * v, abs=1e-15)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(h=0.49, lam=0.0, v_B=0.0),
            dict(h=1.01, lam=0.0, v_B=0.0),
            dict(h=0.8, lam=-0.1, v_B=0.0),
            dict(h=0.8, lam=1.1, v_B=0.0),
            dict(h=0.8, lam=0.0, v_B=1.0),
            dict(h=0.8, lam=0.0, v_B=-0.01),
            dict(h=0.8, lam=0.0, v_B=0.0, gamma=0.0),
            dict(h=0.8, lam=0.0, v_B=0.0, gamma=1.0),
            dict(h=0.8, lam=0.0, v_B=0.0, mu0=1.5),
        ],
    )
    def test_parameter_errors(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(h=math.nan), "h must be finite, got nan"),
            (dict(lam=math.inf), "lam must be finite, got inf"),
            (dict(v_B=-math.inf), "v_B must be finite, got -inf"),
            (dict(gamma=math.nan), "gamma must be finite, got nan"),
            (dict(mu0=math.inf), "mu0 must be finite, got inf"),
            (dict(h=0.49), "h must lie in [0.5, 1], got 0.49"),
            (dict(lam=-0.1), "lam must lie in [0, 1], got -0.1"),
            (dict(v_B=1), "v_B must lie in [0, 1), got 1.0"),
            (dict(gamma=0.0), "gamma must lie in (0, 1), got 0.0"),
            (dict(mu0=1.5), "mu0 must lie in [0, 1], got 1.5"),
            # Every field is checked for finiteness before any range, in
            # field order.
            (dict(h=2.0, lam=math.nan), "lam must be finite, got nan"),
            (dict(h=2.0, lam=2.0), "h must lie in [0.5, 1], got 2.0"),
            (dict(lam=2.0, mu0=math.nan), "mu0 must be finite, got nan"),
            (dict(v_B=np.float64(-1.0), gamma=0.0), "v_B must lie in [0, 1), got -1.0"),
            (dict(gamma=1, mu0=-1), "gamma must lie in (0, 1), got 1.0"),
        ],
    )
    def test_error_messages_and_order(self, kwargs, message):
        with pytest.raises(ParameterError) as exc:
            ModelParams(**{"h": 0.8, "lam": 0.5, "v_B": 0.2, **kwargs})
        assert str(exc.value) == message

    def test_non_numbers_raise_as_float_does(self):
        with pytest.raises(TypeError):
            ModelParams(h=None, lam=0.0, v_B=0.0)
        with pytest.raises(ValueError):
            ModelParams(h=0.8, lam="half", v_B=0.0)

    def test_fields_become_floats(self):
        params = ModelParams(h=1, lam=True, v_B=np.float64(0.25), gamma=np.float64(0.5), mu0=False)
        values = (params.h, params.lam, params.v_B, params.gamma, params.mu0)
        assert values == (1.0, 1.0, 0.25, 0.5, 0.0)
        assert all(type(value) is float for value in values)
        lam = ModelParams(h=0.5, lam=-0.0, v_B=0.0).lam
        assert type(lam) is float and math.copysign(1.0, lam) == -1.0

    def test_pinned_constants_rejected(self):
        # L = 0.5 and V_G = 1 are constants of the model, not parameters.
        with pytest.raises(TypeError):
            ModelParams(h=0.8, lam=0.0, v_B=0.0, l=0.4)
        with pytest.raises(TypeError):
            ModelParams(h=0.8, lam=0.0, v_B=0.0, v_G=0.9)

    @given(st.lists(
        st.one_of(
            st.sampled_from([-0.0, 0.0, 5e-324, 0.5, 0.49999999999999994, 1.0,
                             1.0000000000000002, 0.9999999999999999]),
            st.floats(-0.5, 1.5),
        ),
        min_size=5, max_size=5,
    ))
    def test_fast_check_admits_what_field_ranges_admit(self, values):
        # __post_init__ writes FIELD_RANGES' tests out for speed; a float
        # point passes it exactly when every field passes its range.
        admitted = all(
            in_range(value) for (in_range, _), value in zip(FIELD_RANGES.values(), values)
        )
        try:
            ModelParams(*values)
        except ParameterError:
            assert not admitted
        else:
            assert admitted

    def test_to_dict_uses_lambda_key(self):
        d = ModelParams(h=0.8, lam=0.25, v_B=0.1).to_dict()
        assert d["lambda"] == 0.25 and "lam" not in d


class TestRecord:
    """Every result dataclass takes `to_dict`/`to_json` from `Record`."""

    def records(self):
        params = ModelParams(h=0.7, lam=0.3, v_B=0.1)
        schedule = build_wtp_schedule(params)
        return [
            solve_pooling(params),
            thresholds(params),
            compare_markets(
                ModelParams(h=0.7, lam=0.0, v_B=0.1), ModelParams(h=0.7, lam=1.0, v_B=0.1)
            ),
            simulate_market(params, Quality.G, 0.6, draws=1000, seed=0),
            check_no_separation(params),
            schedule.levels[2],
            schedule,
        ]

    def test_subclasses_are_the_seven_results(self):
        # A new result class must join this list, and so these checks.
        assert set(Record.__subclasses__()) == {
            EquilibriumOutcome, ThresholdSet, ComparisonReport, SimReport,
            SeparationReport, WtpLevel, WtpSchedule,
        }
        assert {type(x) for x in self.records()} == set(Record.__subclasses__())

    def test_to_dict_is_asdict_except_the_schedule(self):
        for x in self.records():
            if isinstance(x, WtpSchedule):
                assert list(x.to_dict()) == ["params", "levels"]
            else:
                assert x.to_dict() == dataclasses.asdict(x)

    def test_to_json_dumps_to_dict(self):
        for x in self.records():
            assert x.to_json() == json.dumps(x.to_dict())
