"""The closed-form threshold engine against the bisection reference.

`thresholds()` takes every tie from an exact root of the levels' profit
polynomials (quadratic or linear for two levels, a quartic for the three-way
ties); `bisection_thresholds` finds the same numbers by bisection on the
ladder.  Fields must agree within 1e-9 with the same None
pattern, and the ties the engine reports must hold on the ladder itself.
`gamma_switch`'s radical is checked the same way against bisection on its
defining difference.
"""

import contextlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import bisection_thresholds as reference
import reference_thresholds
from splab import ModelParams, build_wtp_schedule, gamma_switch, thresholds
from splab.cli import main
from splab.equilibrium import (
    _eval,
    _interval_roots,
    _roots,
    _structure_constants,
)
from splab.oracle import bisect_threshold

FIELDS = (
    "h_star", "h_hat1", "h_hat2", "h_hat3",
    "lambda_hat1", "lambda_hat2", "lambda_hat3", "lambda_bar",
    "v_bar", "h_underline", "h_overline", "v_bar_prime",
)


def _profits(h: float, lam: float, v_B: float) -> list[float]:
    sched = build_wtp_schedule(ModelParams(h=h, lam=lam, v_B=v_B))
    return [lvl.wtp * cov for lvl, cov in zip(sched.levels, sched.coverage_G)]


def _boundary_residual(h: float, lam: float, v_B: float, max_level: int) -> float:
    """|best profit at levels 1..max_level - best profit above| at h."""
    p = _profits(h, lam, v_B)
    return abs(max(p[:max_level]) - max(p[max_level:]))


@settings(max_examples=25, deadline=None)
@given(
    h=st.floats(min_value=0.5, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=1.0),
    v_B=st.floats(min_value=0.0, max_value=0.95, exclude_max=True),
)
@example(h=0.5, lam=0.0, v_B=0.0)
@example(h=1.0, lam=1.0, v_B=0.0)
@example(h=0.5, lam=1.0, v_B=0.3)
@example(h=1.0, lam=0.0, v_B=0.9)
@example(h=0.7, lam=0.3, v_B=0.2)
def test_agrees_with_bisection_and_ties_hold(h, lam, v_B):
    params = ModelParams(h=h, lam=lam, v_B=v_B)
    got, want = thresholds(params), reference.thresholds(params)
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), (name, a, b)
        if a is not None:
            assert abs(a - b) <= 1e-9, (name, a, b)

    for name, max_level in (("h_star", 2), ("h_hat1", 1), ("h_hat2", 2), ("h_hat3", 3)):
        value = getattr(got, name)
        if value is not None and value < 1.0:
            assert _boundary_residual(value, lam, v_B, max_level) <= 1e-12, name
    pair = reference.lambda_bar_pair(h, v_B)
    if got.lambda_bar is not None and pair is not None:
        p = _profits(h, got.lambda_bar, v_B)
        assert abs(p[pair[0] - 1] - p[pair[1] - 1]) <= 1e-12


def test_direct_formulas():
    for v in (0.0, 0.1, 0.2, 0.5):
        ts = thresholds(ModelParams(h=0.7, lam=0.3, v_B=v))
        assert ts.h_underline == 2.0 / (3.0 - v)
        assert ts.v_bar == (4.0 * math.sqrt(2.0) - 5.0) / 7.0
    assert thresholds(ModelParams(h=0.7, lam=0.3, v_B=0.0)).h_overline == math.sqrt(3.0) / 2.0
    assert thresholds(ModelParams(h=0.7, lam=0.3, v_B=0.21)).h_overline is None


@pytest.mark.parametrize(
    "q,bracket",
    [
        ((-0.37, 1.0, 0.0), (0.0, 1.0)),   # linear
        ((0.0, 1.0, 1.0), (0.0, 0.5)),     # zero at the left end
        ((-0.25, 0.0, 1.0), (0.0, 0.5)),   # zero at the right end
        ((0.3, 1.0, 1.0), (0.0, 0.5)),     # no sign change
        ((0.2, -1.0, 0.5), (0.0, 0.5)),    # root near 0.2254
    ],
)
def test_bracketed_root_keeps_bisection_rules(q, bracket):
    got = reference_thresholds.bracketed_root(q, *bracket)
    want = bisect_threshold(lambda x: _eval(q, x), bracket)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == pytest.approx(want, abs=1e-10)


def test_roots_are_cancellation_free():
    # c2 is tiny, so the textbook formula (-c1 + sqrt(D)) / (2 c2) loses every
    # digit of the root near 0.3 to cancellation.
    q = (-0.3, 1.0, 1e-18)
    root = min(_roots(q), key=abs)
    assert root == pytest.approx(0.3, rel=1e-15)
    assert abs(_eval(q, root)) <= 1e-16


def _from_roots(roots: list[float], scale: float) -> list[float]:
    """scale * prod(t - r), ascending coefficients, multiplied out in floats."""
    p = [scale]
    for r in roots:
        p = [a - r * b for a, b in zip([0.0, *p], [*p, 0.0])]
    return p


def _spaced(roots: list[float]) -> bool:
    return all(b - a >= 1e-6 for a, b in zip(roots, roots[1:]))


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(
        st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
        min_size=1, max_size=4, unique=True,
    ).map(sorted).filter(_spaced),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    sign=st.sampled_from((1.0, -1.0)),
    lead=st.just(None),
)
@example(roots=[0.1, 0.3], scale=1.0, sign=1.0, lead=0.0)
@example(roots=[0.2, 0.2000015, 0.4], scale=1.0, sign=-1.0, lead=0.0)
@example(roots=[0.1, 0.3, 0.45], scale=1e-3, sign=1.0, lead=1e-17)
@example(roots=[0.05, 0.3, 0.45], scale=1e3, sign=-1.0, lead=-1e-17)
@example(roots=[0.0, 0.25], scale=2.0, sign=1.0, lead=None)
@example(roots=[0.125, 0.5], scale=4.0, sign=-1.0, lead=0.0)
@example(roots=[0.0, 0.25, 0.5], scale=1.0, sign=1.0, lead=None)
def test_interval_roots_finds_every_root(roots, scale, sign, lead):
    """Each root in [0, 0.5] within 1e-12, plus as far as rounding the
    coefficients can move it, and nothing outside [0, 0.5].

    A leading coefficient of 0 or at rounding level (`lead`, one degree up)
    must not disturb the roots.  The rounding allowance is 8 eps sum|c_k| r^k
    (plus |lead| r^(n+1)) over |p'(r)|: roots 1e-6 apart are pinned by float
    coefficients only to about 1e-10, and a root that allowance cannot tell
    from a neighbour or from outside the interval is not required.  A root
    at an end where p is exactly 0 is required exactly.
    """
    p = _from_roots(roots, sign * scale)
    extra = 0.0
    if lead is not None:
        extra = abs(lead) * max(roots) ** len(p)
        p.append(lead)
    found = _interval_roots(tuple(p), 0.0, 0.5)
    assert found == sorted(found)
    assert all(0.0 <= x <= 0.5 for x in found), found
    assert len(found) <= len(roots)
    for r in roots:
        if r in (0.0, 0.5):
            assert r in found, (r, found)
            continue
        slope = scale * math.prod(abs(r - s) for s in roots if s != r)
        noise = 2.0**-52 * sum(abs(c) * r**k for k, c in enumerate(p)) + extra
        tol = 1e-12 + 8.0 * noise / slope
        apart = min([abs(r - s) for s in roots if s != r] + [r, 0.5 - r])
        if tol < apart / 4:
            assert min(abs(x - r) for x in found) <= tol, (r, found, tol)


@pytest.mark.parametrize("k", [1, 2, 6, 8, 21])
def test_no_three_way_tie_in_the_last_ulps_below_one(k):
    """At v_B = 1 - k 2**-53 the three-way ties are absent, as when bisected.

    k = 1, 2: the level-1/2 tie leaves h in [0.5, 1].  k = 6, 8, 21: the
    level-1/2 difference is rounding noise near h = 1, where the tie
    quartic has roots whose lam read off the level-1/2 tie lands in the
    bracket, although P1 - P3 keeps its sign along that tie.
    """
    v_B = 1.0 - k * 2.0**-53
    ts = thresholds(ModelParams(h=0.7, lam=0.3, v_B=v_B))
    assert ts.lambda_hat1 is None and ts.lambda_hat3 is None
    want = reference_thresholds.structure_constants(v_B)
    assert want.lambda_hat1 is None and want.lambda_hat3 is None


def test_lambda_hat1_absent_when_lambda_hat2_leaves_no_bracket():
    # lambda_hat2 falls below 2e-6 once v_B is within about 5e-6 of 1.
    ts = thresholds(ModelParams(h=0.7, lam=0.3, v_B=0.9999999))
    assert ts.lambda_hat1 is None
    assert 0.0 < ts.lambda_hat2 < 2e-6


def test_bisection_referee_reports_lambda_hat1_absent_below_one():
    # lambda_hat2 - eps < eps: the referee skips lambda_hat1's bracket.
    v_B = 1.0 - 2.0**-53
    assert reference.structure_constants(v_B) == (None, 0.0, None, None, None)
    # The ladder's rung-3 and rung-4 WTPs both round to 1.0 here, so the
    # referee's bisection finds the level-3/4 tie at h = 1 at lam = 0.  The
    # engine reads that tie off the v_B-affine table, within 2**-53 of the
    # exact 3(w4 - w3)/(w4 + w3), w3 = (1 + v_B)/2 and w4 = (3 + v_B)/4.
    lambda_hat1, lambda_hat2, lambda_hat3, h_knee1, h_knee2 = _structure_constants(v_B)
    assert (lambda_hat1, lambda_hat3, h_knee1, h_knee2) == (None, None, None, None)
    v = Fraction(v_B)
    w3, w4 = (1 + v) / 2, (3 + v) / 4
    assert abs(Fraction(lambda_hat2) - 3 * (w4 - w3) / (w4 + w3)) <= Fraction(1, 2**53)


#: v_B over [0, 1), half the draws among the last 2**20 floats below 1, where
#: the level-1/2 tie that lambda_hat3 slides along leaves h in (0.5, 1].
NEAR_ONE_VBS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(min_value=1, max_value=2**20).map(lambda k: 1.0 - k * 2.0**-53),
)
LAST_ULPS = (1.0 - 2.0**-53, 1.0 - 2.0**-52)


@settings(max_examples=100, deadline=None)
@given(
    h=st.floats(min_value=0.5, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=1.0),
    v_B=NEAR_ONE_VBS,
)
@example(h=0.7, lam=0.3, v_B=LAST_ULPS[0])
@example(h=0.5, lam=0.0, v_B=LAST_ULPS[1])
@example(h=1.0, lam=1.0, v_B=LAST_ULPS[0])
def test_every_v_b_below_one_has_thresholds(h, lam, v_B):
    ts = thresholds(ModelParams(h=h, lam=lam, v_B=v_B))
    for name in FIELDS:
        value = getattr(ts, name)
        assert value is None or math.isfinite(value), (name, value)
    if v_B in LAST_ULPS:
        assert ts.lambda_hat1 is None and ts.lambda_hat3 is None


@settings(max_examples=50, deadline=None)
@given(
    h=st.floats(min_value=0.5, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=1.0),
    v_B=NEAR_ONE_VBS,
)
@example(h=0.7, lam=0.3, v_B=LAST_ULPS[0])
@example(h=0.7, lam=0.3, v_B=LAST_ULPS[1])
def test_thresholds_command_answers_every_v_b_below_one(h, lam, v_B):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["thresholds", "--h", repr(h), "--lambda", repr(lam), "--vb", repr(v_B)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().count("\n") == 2


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@settings(max_examples=200, deadline=None)
@given(h=st.floats(min_value=0.5, max_value=1.0))
@example(h=0.5)
@example(h=math.nextafter(GOLDEN, 0.0))
@example(h=GOLDEN)
@example(h=math.nextafter(GOLDEN, 1.0))
@example(h=1.0)
def test_gamma_switch_agrees_with_bisection(h):
    def diff(gamma: float) -> float:
        wb = gamma * h + (1.0 - gamma) * 0.5
        return wb * wb - (1.0 - wb)

    got, want = gamma_switch(h), bisect_threshold(diff, (0.0, 1.0))
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert abs(got - want) <= 1e-9
