"""`thresholds()` off one level map equals the per-boundary engine bit for bit.

`thresholds()` reads h_hat1, h_star and the level-3 boundary off one level
map per (lam, v_B) and bisects the three-way ties over hoisted rungs;
`reference_thresholds` is the body that searched each boundary on its own
and rebuilt every rung per bisection step.  Both must give the same `repr`
(or raise the same exception type) everywhere, including lam = -0.0, the
edges h in {0.5, 1} and v_B in the last ulps below 1.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import reference_thresholds as reference
from splab import ModelParams, thresholds
from test_threshold_engine import LAST_ULPS, NEAR_ONE_VBS

THRESHOLD_TABLES = Path(__file__).resolve().parents[1] / "bench" / "data" / "thresholds.json"


def _outcome(solve, params: ModelParams) -> str:
    try:
        return repr(solve(params))
    except Exception as exc:  # the exception type is part of the contract
        return type(exc).__name__


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
def test_level_map_equals_reference(h, lam, v_B):
    params = ModelParams(h=h, lam=lam, v_B=v_B)
    assert _outcome(thresholds, params) == _outcome(reference.thresholds, params)


def test_every_benchmark_table_call_equals_reference():
    with open(THRESHOLD_TABLES, encoding="utf-8") as fh:
        tables = json.load(fh)["tables"]
    calls = 0
    for table in tables:
        for call in table["calls"]:
            params = ModelParams(h=call["h"], lam=call["lambda"], v_B=table["v_B"])
            assert _outcome(thresholds, params) == _outcome(reference.thresholds, params), (
                call, table["v_B"])
            calls += 1
    assert calls == 512 * 7
