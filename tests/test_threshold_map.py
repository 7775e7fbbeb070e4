"""`thresholds()` off one level map against the per-boundary engine.

`thresholds()` reads h_hat1, h_star and the level-3 boundary off one level
map per (lam, v_B) and takes each three-way tie as a root of one quartic;
`reference_thresholds` is the body that searched each boundary on its own
and bisected the three-way ties, rebuilding every rung per step.  Every
field but lambda_hat1 and lambda_hat3 must have the same `repr` (or the call
raise the same exception type) everywhere, including lam = -0.0, the edges
h in {0.5, 1} and v_B in the last ulps below 1.  The two three-way ties must
have the same None pattern and agree within the reference's bisection
tolerance BISECT_TOL; at the closed form's ties the three levels meet on
the ladder to rounding level, much closer than at the bisected ones.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import reference_thresholds as reference
from splab import ModelParams, thresholds
from splab.equilibrium import _level_profit_G
from splab.oracle import BISECT_TOL
from test_threshold_engine import LAST_ULPS, NEAR_ONE_VBS

THRESHOLD_TABLES = Path(__file__).resolve().parents[1] / "bench" / "data" / "thresholds.json"


#: The three-way ties and the levels that meet at each.
THREE_WAY = {"lambda_hat1": (3, 4, 2), "lambda_hat3": (1, 2, 3)}


def _outcome(solve, params: ModelParams) -> tuple[str, dict]:
    """repr of every field but the three-way ties (or the exception type),
    and the three-way ties apart."""
    try:
        ts = solve(params)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc).__name__, {}
    ties = {name: getattr(ts, name) for name in THREE_WAY}
    return repr(dataclasses.replace(ts, **dict.fromkeys(THREE_WAY))), ties


def _assert_matches_reference(params: ModelParams) -> None:
    got, got_ties = _outcome(thresholds, params)
    want, want_ties = _outcome(reference.thresholds, params)
    assert got == want
    for name, value in got_ties.items():
        other = want_ties[name]
        assert (value is None) == (other is None), (name, value, other)
        if value is not None:
            assert abs(value - other) <= BISECT_TOL, (name, value, other)


@settings(max_examples=300, deadline=None)
@given(
    h=st.floats(min_value=0.5, max_value=1.0),
    lam=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(-0.0)),
    v_B=NEAR_ONE_VBS,
)
@example(h=0.5, lam=0.0, v_B=0.0)
@example(h=1.0, lam=0.0, v_B=0.0)
@example(h=0.5, lam=-0.0, v_B=0.22)
@example(h=1.0, lam=1.0, v_B=0.22)
@example(h=0.5, lam=1.0, v_B=LAST_ULPS[0])
@example(h=1.0, lam=-0.0, v_B=LAST_ULPS[1])
# lambda_hat3 near 1 - 1e-6, where the level-1/2 tie's slope in lam nearly
# vanishes: lam read off that tie instead of the level-1/3 one is 2.4e-10 off.
@example(h=0.7, lam=0.3, v_B=1.0 - 9098515994 * 2.0**-53)
def test_level_map_equals_reference(h, lam, v_B):
    _assert_matches_reference(ModelParams(h=h, lam=lam, v_B=v_B))


def _tables() -> list[dict]:
    with open(THRESHOLD_TABLES, encoding="utf-8") as fh:
        return json.load(fh)["tables"]


def test_every_benchmark_table_call_equals_reference():
    calls = 0
    for table in _tables():
        for call in table["calls"]:
            params = ModelParams(h=call["h"], lam=call["lambda"], v_B=table["v_B"])
            _assert_matches_reference(params)
            calls += 1
    assert calls == 512 * 7


def test_three_way_ties_hold_on_the_ladder():
    """At every benchmark v_B the three levels of each tie meet to 1e-14.

    The bisected ties of the reference reach only about 4e-11 here.
    """
    worst = 0.0
    for table in _tables():
        v_B = table["v_B"]
        ts = thresholds(ModelParams(h=0.7, lam=0.3, v_B=v_B))
        for name, (low, high, other) in THREE_WAY.items():
            lam = getattr(ts, name)
            if lam is None:
                continue
            h = reference.tie_h(lam, v_B, low, high)
            profits = [_level_profit_G(h, lam, v_B, level) for level in (low, high, other)]
            worst = max(worst, max(profits) - min(profits))
    assert worst <= 1e-14
