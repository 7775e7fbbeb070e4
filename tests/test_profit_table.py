"""The v_B-affine profit table and the warm path against the bodies they replaced.

`_profit_polys(v_B)` evaluates one table built at import off the ladder at
v_B = 0 and 1; it must match interpolating the ladder at v_B itself
(`reference_thresholds.ladder_profit_polys`) to within 4e-15 in every
coefficient.  Given the table, every rewrite on the warm path of
`thresholds()` must equal the body it replaced bit for bit (compared by
`repr`, so that -0.0 and 0.0 differ): the level-only argmax, the level
probe that reads the profit polynomials and asks the ladder only near a tie,
the level map with its pair roots and piece evaluations written out, and
each lambda tie as one closed-form root.  The draws cover the full parameter
box with its edges: h in {0.5, 1}, lam in {0, -0.0, 1} and v_B among the
last 2**20 floats below 1.  The level map also runs on a fixed grid of the
last 64 floats below 1, where about half the probes fall back to the ladder.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

import reference_thresholds as reference
from splab.demand import ladder_fields
from splab.equilibrium import (
    _PROBE_MARGIN,
    _argmax_level,
    _eval,
    _lambda_bar,
    _lambda_root,
    _level_boundaries,
    _probe_level,
    _profit_polys,
    _structure_constants,
    _tie_lambda,
)
from test_threshold_engine import LAST_ULPS, NEAR_ONE_VBS

HS = st.one_of(st.floats(min_value=0.5, max_value=1.0), st.sampled_from((0.5, 1.0)))
LAMS = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from((0.0, -0.0, 1.0)))
PAIRS = [(low, high) for low in range(1, 6) for high in range(low + 1, 6)]


@settings(max_examples=300, deadline=None)
@given(v_B=NEAR_ONE_VBS)
@example(v_B=0.0)
@example(v_B=0.22)
@example(v_B=LAST_ULPS[0])
@example(v_B=LAST_ULPS[1])
def test_table_matches_the_ladder(v_B):
    got, want = _profit_polys(v_B), reference.ladder_profit_polys(v_B)
    for level_got, level_want in zip(got, want):
        for poly_got, poly_want in zip(level_got, level_want):
            for c_got, c_want in zip(poly_got, poly_want):
                assert abs(c_got - c_want) <= 4e-15, (v_B, c_got, c_want)


@settings(max_examples=500, deadline=None)
@given(h=HS, lam=LAMS, v_B=NEAR_ONE_VBS)
@example(h=1.0, lam=0.0, v_B=0.2)
@example(h=1.0, lam=-0.0, v_B=LAST_ULPS[0])
@example(h=0.5, lam=1.0, v_B=LAST_ULPS[1])
@example(h=0.5, lam=0.0, v_B=0.0)
def test_argmax_level_equals_the_full_argmax(h, lam, v_B):
    want = reference.argmax_level(h, lam, v_B)
    assert _argmax_level(h, lam, v_B) == want
    assert _probe_level(_profit_polys(v_B), h, lam, v_B) == want


@settings(max_examples=500, deadline=None)
@given(h=HS, lam=LAMS, v_B=NEAR_ONE_VBS)
@example(h=1.0, lam=1.0, v_B=LAST_ULPS[0])
@example(h=0.5, lam=0.0, v_B=0.0)
@example(h=0.75, lam=0.5, v_B=0.5)
def test_probe_margin_covers_the_ladder_gap(h, lam, v_B):
    # Every rung's polynomial profit, evaluated as _probe_level evaluates it
    # (A + lam * B, then Horner in t), lies well inside the margin of the
    # ladder's wtp * cov_G, so a lead wider than the margin on the
    # polynomials is a lead on the ladder.
    wtps, cov_G, _ = ladder_fields(h, lam, v_B)
    for k, profit in enumerate(reference.profits_at(lam, v_B)):
        gap = abs(_eval(profit, h - 0.5) - wtps[k] * cov_G[k])
        assert gap <= _PROBE_MARGIN / 100, (k + 1, gap)


ENDS = st.sampled_from((0.0, -0.0))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(
    ab=st.one_of(
        st.tuples(FINITE, FINITE),
        st.tuples(ENDS, FINITE),
        # a + b == 0: the tie sits at lam = 1.
        FINITE.map(lambda a: (a, -a)),
        st.tuples(FINITE, ENDS),
    )
)
@example(ab=(0.0, 1.0))
@example(ab=(-0.0, -1.0))
@example(ab=(0.25, -0.25))
@example(ab=(-0.25, 0.25))
@example(ab=(0.3, -0.0))
@example(ab=(-0.3, 1.0))
@example(ab=(5e-324, -1e308))
def test_lambda_root_equals_the_bracketed_root(ab):
    a, b = ab
    got, want = _lambda_root(a, b), reference.bracketed_root((a, b, 0.0), 0.0, 1.0)
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(h=HS, v_B=NEAR_ONE_VBS)
@example(h=1.0, v_B=LAST_ULPS[0])
@example(h=0.5, v_B=0.0)
@example(h=0.7, v_B=0.1)
def test_lambda_ties_equal_the_bracketed_roots(h, v_B):
    polys = _profit_polys(v_B)
    for low, high in PAIRS:
        got, want = _tie_lambda(polys, h, low, high), reference.tie_lambda(h, v_B, low, high)
        assert repr(got) == repr(want), (low, high)
    consts = _structure_constants(v_B)
    assert repr(_lambda_bar(polys, h, consts)) == repr(reference.lambda_bar(h, v_B, consts))


def _last_ulps_grid(test):
    """The test at v_B = 1 - k * 2**-53, k = 1..64, by lam in {0, 0.01, ..., 1}.

    So close to 1, levels 1 and 2 earn within (1 - v_B) / 4 of each other
    at h = 1, and about half the level probes there are settled by the
    ladder.
    """
    for k in range(1, 65):
        for i in range(101):
            test = example(lam=i / 100, v_B=1.0 - k * 2.0**-53)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(lam=LAMS, v_B=NEAR_ONE_VBS)
@example(lam=0.0, v_B=0.0)
@example(lam=-0.0, v_B=0.22)
@example(lam=1.0, v_B=LAST_ULPS[0])
@example(lam=0.3, v_B=LAST_ULPS[1])
@_last_ulps_grid
def test_level_map_equals_the_replaced_body(lam, v_B):
    polys = _profit_polys(v_B)
    got = _level_boundaries(polys, lam, v_B)
    assert repr(got) == repr(reference.level_boundaries(lam, v_B))
    # thresholds() probes the level just below h_star and the level-3 boundary.
    for boundary in got[1:]:
        h = max(0.5, boundary - 1e-8)
        assert _probe_level(polys, h, lam, v_B) == reference.argmax_level(h, lam, v_B), boundary
