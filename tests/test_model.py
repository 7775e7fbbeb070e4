"""Unit tests for the signal technology and posterior machinery.

Beliefs are read through the two forms the program runs: the oracle's
eight cells (`splab.oracle.consumer_cells`, at any gamma and mu0) and the
baseline ladder (`splab.demand.ladder`).  At v_B = 0 a cell's WTP,
mu*V_G + (1-mu)*0, is its posterior mu bit for bit.
"""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import splab
from splab import (
    ComparisonReport,
    EquilibriumOutcome,
    ModelParams,
    ParameterError,
    Quality,
    SeparationReport,
    SimReport,
    ThresholdSet,
    UnsupportedVariantError,
    WtpLevel,
    WtpSchedule,
    build_wtp_schedule,
    check_no_separation,
    compare_markets,
    simulate_market,
    solve_pooling,
    thresholds,
    w_bar,
    wtp_from_posterior,
)
from splab.demand import ladder
from splab.model import FIELD_RANGES, Record
from splab.oracle import consumer_cells

hs = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
lams = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
gammas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
mu0s = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# Cell order of consumer_cells: naive then sophisticated, each after
# good-high, bad-high, good-low and bad-low news.
NAIVE_GH, NAIVE_BH, NAIVE_GL, NAIVE_BL, SOPH_GH, SOPH_BH, SOPH_GL, SOPH_BL = range(8)


def base(h, lam=0.0, v_B=0.0, **kw):
    return ModelParams(h=h, lam=lam, v_B=v_B, **kw)


def beliefs(params):
    """The eight cells' posteriors: their WTPs, read at v_B = 0."""
    assert params.v_B == 0.0
    return [wtp for _, wtp in consumer_cells(params, Quality.G)]


def masses(params, quality):
    """The eight cells' probabilities under `quality`."""
    return [mass for mass, _ in consumer_cells(params, quality)]


class TestSignalDistribution:
    """Pr(signal | Q) is a cell's mass in a market of one consumer type."""

    def test_h08_good_quality(self):
        for lam, first in ((0.0, NAIVE_GH), (1.0, SOPH_GH)):
            dist = masses(base(0.8, lam=lam), Quality.G)[first : first + 4]
            assert dist == pytest.approx([0.40, 0.10, 0.25, 0.25], abs=1e-15)

    def test_uninformative_at_half(self):
        dist = masses(base(0.5, lam=1.0), Quality.G)[SOPH_GH:]
        assert all(abs(p - 0.25) <= 1e-15 for p in dist)

    def test_perfect_high_signal_for_bad_quality(self):
        dist = masses(base(1.0, lam=1.0), Quality.B)
        assert dist[SOPH_BH] == pytest.approx(0.5, abs=1e-15)
        assert dist[SOPH_GH] == 0.0

    @given(h=hs, lam=lams, gamma=gammas, mu0=mu0s)
    def test_distribution_sums_to_one(self, h, lam, gamma, mu0):
        params = base(h, lam=lam, gamma=gamma, mu0=mu0)
        for quality in Quality:
            dist = masses(params, quality)
            assert abs(sum(dist) - 1.0) <= 2e-15
            assert abs(sum(dist[:SOPH_GH]) - (1.0 - lam)) <= 1e-15
            assert abs(sum(dist[SOPH_GH:]) - lam) <= 1e-15


class TestPosteriors:
    def test_sophisticated_examples(self):
        mu = beliefs(base(0.8, lam=0.3))
        assert mu[SOPH_GH] == pytest.approx(0.8, abs=1e-15)
        assert mu[SOPH_BL] == pytest.approx(0.5, abs=1e-15)

    def test_naive_examples(self):
        assert beliefs(base(0.8))[NAIVE_GH] == pytest.approx(0.65, abs=1e-15)
        assert beliefs(base(0.9))[NAIVE_BH] == pytest.approx(0.30, abs=1e-15)
        assert beliefs(base(0.9, gamma=0.8))[NAIVE_GH] == pytest.approx(0.82, abs=1e-15)

    def test_prior_weighted_naive(self):
        got = beliefs(base(0.8, mu0=0.7))[NAIVE_GH]
        assert got == pytest.approx(0.8125, abs=1e-12)

    @given(h=hs, lam=lams, gamma=gammas)
    def test_degenerate_priors_absorb(self, h, lam, gamma):
        for mu0 in (0.0, 1.0):
            assert beliefs(base(h, lam=lam, gamma=gamma, mu0=mu0)) == [mu0] * 8

    @given(h=hs, lam=lams, gamma=gammas, mu0=mu0s)
    def test_posterior_is_martingale(self, h, lam, gamma, mu0):
        # Unconditionally, each type's expected posterior equals the prior.
        params = base(h, lam=lam, gamma=gamma, mu0=mu0)
        mu = beliefs(params)
        dist_G, dist_B = masses(params, Quality.G), masses(params, Quality.B)
        weighted = [
            (mu0 * g + (1 - mu0) * b) * m for g, b, m in zip(dist_G, dist_B, mu)
        ]
        assert sum(weighted[:SOPH_GH]) == pytest.approx((1 - lam) * mu0, abs=1e-12)
        assert sum(weighted[SOPH_GH:]) == pytest.approx(lam * mu0, abs=1e-12)

    @given(h=hs, lam=lams, gamma=gammas)
    def test_valence_symmetry_at_even_prior(self, h, lam, gamma):
        # With a 50/50 prior the good and bad posteriors mirror each other.
        mu = beliefs(base(h, lam=lam, gamma=gamma))
        for good in (NAIVE_GH, NAIVE_GL, SOPH_GH, SOPH_GL):
            assert mu[good] + mu[good + 1] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_h(self):
        grid = [0.5 + 0.05 * k for k in range(11)]
        for gamma, mu0 in ((0.5, 0.5), (0.3, 0.7), (0.9, 0.2)):
            cells = [beliefs(base(h, lam=0.5, gamma=gamma, mu0=mu0)) for h in grid]
            for good in (NAIVE_GH, SOPH_GH):
                assert all(a[good] < b[good] for a, b in zip(cells, cells[1:]))

    @given(lam=lams)
    def test_everything_collapses_at_half(self, lam):
        assert all(abs(mu - 0.5) <= 1e-15 for mu in beliefs(base(0.5, lam=lam, gamma=0.37)))


class TestBeliefProfile:
    def test_eight_cells_and_naive_ignores_precision(self):
        # At h = 0.85 naive consumers impute w_bar = 0.675 to every signal.
        mu = beliefs(base(0.85, lam=0.4))
        expected = [0.675, 0.325, 0.675, 0.325, 0.85, 0.15, 0.5, 0.5]
        assert mu == pytest.approx(expected, abs=1e-15)
        assert mu[NAIVE_GH] == mu[NAIVE_GL] and mu[NAIVE_BH] == mu[NAIVE_BL]

    @given(h=hs, lam=lams, v_B=st.floats(0.0, 0.99), gamma=gammas, mu0=mu0s)
    def test_naive_ignores_precision_everywhere(self, h, lam, v_B, gamma, mu0):
        params = base(h, lam, v_B, gamma=gamma, mu0=mu0)
        wtps = [wtp for _, wtp in consumer_cells(params, Quality.G)]
        assert wtps[NAIVE_GH] == wtps[NAIVE_GL]
        assert wtps[NAIVE_BH] == wtps[NAIVE_BL]

    @given(
        h=st.one_of(st.sampled_from([0.5, 1.0]), hs),
        lam=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), lams),
        v_B=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 0.99)),
    )
    @example(h=0.5, lam=-0.0, v_B=-0.0)
    @example(h=1.0, lam=-0.0, v_B=-0.0)
    @example(h=1.0, lam=1.0, v_B=0.0)
    def test_cells_and_ladder_share_every_wtp(self, h, lam, v_B):
        # The oracle's cells and the solver's ladder price each belief in
        # their own form; on the baseline they must agree bit for bit (repr,
        # so a -0.0 cannot pass for 0.0).
        params = ModelParams(h=h, lam=lam, v_B=v_B)
        wtps = [wtp for _, wtp in consumer_cells(params, Quality.G)]
        rungs = [wtps[SOPH_BH], wtps[NAIVE_BH], wtps[SOPH_GL], wtps[NAIVE_GH], wtps[SOPH_GH]]
        assert repr(rungs) == repr(list(ladder(params)[0]))
        assert repr(wtps[SOPH_BL]) == repr(wtps[SOPH_GL])
        assert sorted(set(wtps)) == sorted(set(ladder(params)[0]))


class TestPublicApi:
    #: splab.__all__, sorted.  A change to the public API edits this list.
    PUBLIC_API = [
        "ComparisonReport",
        "EquilibriumOutcome",
        "GridSpec",
        "ModelParams",
        "ParameterError",
        "PoolingCandidate",
        "Quality",
        "SeparationReport",
        "SimReport",
        "ThresholdSet",
        "UnsupportedVariantError",
        "WtpLevel",
        "WtpSchedule",
        "best_pooling_candidate",
        "bisect_threshold",
        "build_wtp_schedule",
        "check_no_separation",
        "classify_equilibrium",
        "compare_markets",
        "demand_by_enumeration",
        "expected_demand",
        "gamma_switch",
        "gamma_thresholds",
        "grid_argmax",
        "hstar_prior",
        "prior_mu_lower",
        "simulate_market",
        "solve_gamma",
        "solve_mixed",
        "solve_pooling",
        "solve_prior",
        "thresholds",
        "w_bar",
        "wtp_from_posterior",
    ]

    def test_all_is_the_recorded_list(self):
        assert sorted(splab.__all__) == self.PUBLIC_API
        assert len(set(splab.__all__)) == len(splab.__all__)

    def test_every_name_resolves(self):
        namespace = {}
        exec("from splab import *", namespace)
        for name in self.PUBLIC_API:
            assert namespace[name] is getattr(splab, name)


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


@pytest.mark.parametrize(
    "cls", [ModelParams, *Record.__subclasses__()], ids=lambda cls: cls.__name__
)
class TestConstructors:
    """ModelParams and every Record build as a generated dataclass __init__
    would, the two with a written-out __init__ (ModelParams and
    EquilibriumOutcome) included: a field added to the class but not to its
    __init__, or stored under another field's name, fails here."""

    def values(self, cls):
        """A distinct value per field: in-range floats for ModelParams,
        and for a Record, which checks no types, the field's own name."""
        names = [field.name for field in dataclasses.fields(cls)]
        if cls is ModelParams:
            return dict(zip(names, (0.7, 0.3, 0.1, 0.4, 0.6)))
        return {name: name for name in names}

    def test_signature_lists_the_fields_and_defaults(self, cls):
        fields = dataclasses.fields(cls)
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [field.name for field in fields]
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        defaults = [
            inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default
            for field in fields
        ]
        assert [p.default for p in params] == defaults
        required = {
            name: value for (name, value), default in zip(self.values(cls).items(), defaults)
            if default is inspect.Parameter.empty
        }
        assert vars(cls(**required)) == {
            field.name: required.get(field.name, field.default) for field in fields
        }

    def test_positional_and_keyword_construction_agree(self, cls):
        values = self.values(cls)
        by_position, by_name = cls(*values.values()), cls(**values)
        assert vars(by_position) == vars(by_name) == values
        assert by_position == by_name
        assert hash(by_position) == hash(by_name)

    def test_fields_are_frozen_and_replace_keeps_them(self, cls):
        values = self.values(cls)
        x = cls(**values)
        for name in values:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, values[name])
        assert dataclasses.replace(x) == x
        assert vars(x) == values
