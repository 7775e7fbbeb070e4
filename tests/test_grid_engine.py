"""The chunked grid engine against the scalar path, bit for bit and byte for byte.

`splab.cli._grid_rows` walks a grid in chunks of at most GRID_CHUNK points
and takes each chunk's candidates in one `pooling_candidates` call: the
baseline argmax (`best_pooling_candidates`) and the fully naive market's
(`naive_candidates`).  These tests hold both passes to the scalar
`best_pooling_candidate` and `_naive_candidate` over the whole parameter
box, and the router to the same scalar argmaxes on arrays that mix both
kinds of point; they hold the two scans both passes share (`_argmax` on
floats, `_argmaxes` on arrays) to each other on crafted candidates, hold
the rows to the per-point bodies in `reference_grid.py` (a grid with a
refused point must raise the reference's error before it solves any
point) and compare's rows to its per-h body there, hold the CLI bytes to
digests recorded before each pass was batched, also with the scalar
argmaxes made to raise, and bound the memory the chunks take, which must
not grow with the grid now that rows stream to the writer, and with a long
axis by little more than its value list.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_candidate
import reference_grid as reference
import reference_writer
import splab.cli as cli
import splab.equilibrium as equilibrium
from splab import ModelParams, UnsupportedVariantError, best_pooling_candidate
from splab.equilibrium import (
    _argmax,
    _argmaxes,
    _naive_candidate,
    best_pooling_candidates,
    naive_candidates,
    pooling_candidates,
)
from splab.model import ParameterError

DIGESTS = Path(__file__).resolve().parent / "data" / "grid_digests.json"

#: The whole box with its edges: h at 1/2 and 1 and one ulp inside each,
#: lam at +-0, the smallest subnormal and 1, v_B at +-0 and one ulp below 1.
box_hs = st.one_of(
    st.sampled_from([0.5, 0.5 + 2**-53, 1.0 - 2**-53, 1.0]),
    st.floats(min_value=0.5, max_value=1.0),
)
box_lams = st.one_of(
    st.sampled_from([0.0, -0.0, 2**-1074, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)
box_vbs = st.one_of(
    st.sampled_from([0.0, -0.0, 0.22, 1.0 - 2**-53]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)

#: tracemalloc peak of `_region_rows` on the 201 x 201 region-map grid
#: (v_B = 0.22) before the chunked engine, in bytes (Python 3.11.7, numpy 2.4).
SCALAR_PEAK_201 = 9_163_401


def _axes(*argv: str) -> dict[str, list[float]]:
    return cli._resolve_axes(cli.build_parser().parse_args(["sweep", *argv]), {})


class TestBatchedCandidates:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(box_hs, box_lams, box_vbs), min_size=1, max_size=40))
    @example([(0.5, 0.3, 0.1), (1.0, -0.0, 0.0), (1.0 - 2**-53, 2**-1074, 1.0 - 2**-53)])
    @example([(0.5, -0.0, -0.0), (0.7, -0.0, -0.0), (1.0, -0.0, -0.0)])
    def test_equals_scalar_argmax_field_by_field(self, points):
        h, lam, v_B = (np.array(column) for column in zip(*points))
        fields = [array.tolist() for array in best_pooling_candidates(h, lam, v_B)]
        for k, point in enumerate(points):
            want = best_pooling_candidate(ModelParams(*point))
            got = tuple(field[k] for field in fields)
            # repr tells -0.0 from 0.0 and an int level from a float.
            assert repr(got) == repr(tuple(want)), point

    @pytest.mark.parametrize("cov_G", [(0.0,) * 5, (1.0, 0.9, 0.5, 0.2, 0.1)])
    @pytest.mark.parametrize("v_B", [0.1, 0.4, 1.5])
    def test_v_B_candidate_on_crafted_ladders(self, monkeypatch, cov_G, v_B):
        # In the box v_B never wins (its covering rung earns at least as
        # much), so crafted ladders reach its coverage lookup: v_B wins the
        # all-zero tie by its lower price, and above the top rung it sells
        # to no one.
        wtps, cov_B = (0.2, 0.4, 0.6, 0.8, 1.0), (1.0, 0.8, 0.6, 0.4, 0.2)
        monkeypatch.setattr(equilibrium, "ladder", lambda params: (wtps, cov_G, cov_B))
        monkeypatch.setattr(
            equilibrium, "ladder_fields",
            lambda h, lam, v: tuple(tuple(np.full(h.shape, x) for x in t) for t in (wtps, cov_G, cov_B)),
        )
        params = ModelParams(0.7, 0.3, 0.1)
        object.__setattr__(params, "v_B", v_B)
        want = best_pooling_candidate(params)
        got = [array.tolist()[0] for array in best_pooling_candidates(np.array([0.7]), 0.3, v_B)]
        assert repr(tuple(got)) == repr(tuple(want))

    def test_scalar_fields_broadcast(self):
        price, level, profit_G, profit_B = best_pooling_candidates(
            np.array([0.5, 0.7, 1.0]), 0.3, 0.1
        )
        assert price.shape == level.shape == profit_G.shape == profit_B.shape == (3,)


#: Crafted candidate lists, each with the index that must win.  Every
#: product is exact, so each tie below is a true tie.
NAIVE_LEVELS, BASELINE_LEVELS = (2, 4), (1, 2, 3, 4, 5, None)
CRAFTED_CANDIDATES = {
    "later_lower_price_wins_tie": (
        ((0.5, 0.25), (0.5, 1.0), (0.5, 0.75), NAIVE_LEVELS), 1
    ),
    "equal_price_and_profit_keeps_earlier": (
        ((0.5, 0.5), (0.5, 0.5), (0.25, 0.75), NAIVE_LEVELS), 0
    ),
    "zero_coverage_loses_to_positive_profit": (
        ((0.25, 0.75), (1.0, 0.0), (1.0, 0.0), NAIVE_LEVELS), 0
    ),
    "zero_coverage_tie_goes_to_lower_price": (
        ((0.75, 0.25), (0.0, 0.0), (0.5, 0.0), NAIVE_LEVELS), 1
    ),
    # -0.0 * 1.0 ties 0.5 * 0.0 at the lower price, so its sign shows, as
    # the kept first candidate's does when the tie is at a higher price.
    "signed_zero_profit_wins": (((0.5, -0.0), (0.0, 1.0), (0.0, 1.0), NAIVE_LEVELS), 1),
    "signed_zero_profit_kept": (((-0.0, 0.5), (1.0, 0.0), (1.0, 0.0), NAIVE_LEVELS), 0),
    # Level 4 ties level 1 at a higher price and level 3 ties it at an equal
    # one; v_B ties it at a lower one and wins.
    "six_ties_resolved_by_price_then_order": (
        (
            (0.5, 0.75, 0.5, 1.0, 0.75, 0.25),
            (0.5, 0.25, 0.5, 0.25, 0.25, 1.0),
            (0.5, 0.75, 0.5, 0.75, 0.75, 0.0),
            BASELINE_LEVELS,
        ),
        5,
    ),
    "six_equal_prices_keep_first": (
        ((0.5,) * 6, (0.5,) * 6, (0.25, 0.5, 0.5, 0.5, 0.5, 0.5), BASELINE_LEVELS), 0
    ),
    # Every rung unsold: all profits tie at 0 and the lowest price, v_B's
    # above the top rung, wins with zero coverage.
    "six_zero_coverages": (
        ((0.25, 0.5, 0.625, 0.75, 1.0, 0.125), (0.0,) * 6, (0.0,) * 6, BASELINE_LEVELS), 5
    ),
}


class TestArgmaxScans:
    @pytest.mark.parametrize("name", sorted(CRAFTED_CANDIDATES))
    def test_scalar_and_array_scans_agree(self, name):
        (prices, cov_G, cov_B, levels), winner = CRAFTED_CANDIDATES[name]
        want = (
            prices[winner], levels[winner],
            prices[winner] * cov_G[winner], prices[winner] * cov_B[winner],
        )
        got = _argmax(prices, cov_G, cov_B, levels)
        # repr tells -0.0 from 0.0 and an int level from a float.
        assert repr(tuple(got)) == repr(want)
        # Floats stay floats among the array coverages, as in the naive set.
        arrays = [np.array([x]) for x in prices], [np.array([x]) for x in cov_G], cov_B
        fields = _argmaxes(*arrays, levels)
        assert repr(tuple(field.tolist()[0] for field in fields)) == repr(tuple(got))


box_gammas = st.one_of(
    st.sampled_from([5e-324, 0.5, 1.0 - 2**-53]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
box_mu0s = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
#: Every corner of the naive box, then the point where w_bar rounds to 1 and
#: the good-signal posterior's denominator is 0 (the price is v_B there).
NAIVE_EDGES = [
    (h, v_B, gamma, mu0)
    for h in (0.5, 1.0) for v_B in (0.0, 1.0 - 2**-53)
    for gamma in (5e-324, 1.0 - 2**-53) for mu0 in (0.0, 1.0)
] + [(1.0, 0.3, 1.0 - 2**-53, 0.0)]


class TestNaiveCandidates:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(box_hs, box_vbs, box_gammas, box_mu0s), min_size=1, max_size=40))
    @example(NAIVE_EDGES)
    @example([(0.5, -0.0, 0.3, 0.4), (0.7, -0.0, 0.3, -0.0), (1.0, -0.0, 1.0 - 2**-53, 1.0)])
    def test_equals_scalar_naive_argmax_field_by_field(self, points):
        h, v_B, gamma, mu0 = (np.array(column) for column in zip(*points))
        fields = [array.tolist() for array in naive_candidates(h, v_B, gamma, mu0)]
        for k, (h_k, v_k, gamma_k, mu0_k) in enumerate(points):
            params = ModelParams(h_k, 0.0, v_k, gamma_k, mu0_k)
            want = _naive_candidate(params)
            # repr tells -0.0 from 0.0, an int level from a float, and NaN.
            assert repr(tuple(want)) == repr(tuple(reference_candidate.naive_candidate(params)))
            assert repr(tuple(field[k] for field in fields)) == repr(tuple(want)), points[k]

    def test_zero_denominator_point_prices_at_v_B(self):
        params = ModelParams(h=1.0, lam=0.0, v_B=0.3, gamma=1.0 - 2**-53, mu0=0.0)
        assert params.gamma * params.h + (1.0 - params.gamma) * 0.5 == 1.0
        assert _naive_candidate(params) == (0.3, 2, 0.3, 0.3)


#: One array of each kind of point pooling_candidates routes: baseline
#: points, fully naive ones at lam = 0 and -0.0, and gamma one ulp below
#: 1/2, which is off the baseline.
ROUTED_POINTS = [
    (0.7, 0.3, 0.1, 0.5, 0.5), (1.0, -0.0, 0.22, 0.5, 0.5), (0.5, 1.0, 0.0, 0.5, 0.5),
    (0.7, 0.0, 0.1, 0.3, 0.4), (0.9, -0.0, 0.2, 0.7, 0.5), (0.6, 0.0, 0.3, 0.5, 0.2),
    (0.8, 0.0, 0.22, 0.49999999999999994, 0.5), (1.0, -0.0, 0.3, 1.0 - 2**-53, 0.0),
]


@st.composite
def routed_points(draw):
    """A baseline point at any lam, or a fully naive one off the baseline."""
    h, v_B = draw(box_hs), draw(box_vbs)
    if draw(st.booleans()):
        return h, draw(box_lams), v_B, 0.5, 0.5
    gamma, mu0 = draw(box_gammas), draw(box_mu0s)
    if gamma == mu0 == 0.5:
        gamma = 0.49999999999999994
    return h, draw(st.sampled_from([0.0, -0.0])), v_B, gamma, mu0


class TestPoolingCandidates:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(routed_points(), min_size=1, max_size=40))
    @example(ROUTED_POINTS)
    def test_routes_each_point_as_solve_pooling_does(self, points):
        fields = [array.tolist() for array in pooling_candidates(*map(np.array, zip(*points)))]
        for k, point in enumerate(points):
            params = ModelParams(*point)
            scalar = best_pooling_candidate if params.is_base_variant else _naive_candidate
            # repr tells -0.0 from 0.0 and an int level from a float.
            assert repr(tuple(field[k] for field in fields)) == repr(tuple(scalar(params))), point

    def test_refuses_lam_off_the_baseline(self):
        point = [np.array([value]) for value in (0.7, 0.3, 0.1, 0.4, 0.5)]
        with pytest.raises(AssertionError):
            pooling_candidates(*point)


#: Grids of each kind the engine meets: the chunk boundary inside the
#: baseline grid, chunks that mix baseline and naive points, the mixed band,
#: where pooling fails and solve_mixed answers, chunks with no baseline
#: point, whose baseline pass runs on empty arrays, and the naive market's
#: edges, among them h = 1, gamma = 1 - 2**-53, mu0 = 0, where w_bar rounds
#: to 1 and the good-signal posterior's denominator is 0.
ROW_GRIDS = {
    "baseline": ("--h", "0.5:1:41", "--lambda", "0:1:41", "--vb", "0:0.6:4"),
    "naive_off_baseline": (
        "--h", "0.5:1:21", "--lambda", "0", "--vb", "0.1:0.3:3",
        "--gamma", "0.3:0.7:5", "--mu0", "0.4:0.6:3",
    ),
    "mixed_band": ("--h", "0.5:1:101", "--lambda", "0", "--vb", "0.2:0.25:11"),
    "no_baseline_point": (
        "--h", "0.5:1:81", "--lambda", "0", "--vb", "0:0.3:4",
        "--gamma", "0.3:0.7:4", "--mu0", "0.3:0.7:4",
    ),
    "naive_edges": (
        "--h", "0.5:1:3", "--lambda", "0", "--vb", "0:0.9999999999999999:2",
        "--gamma", "5e-324:0.9999999999999999:2", "--mu0", "0:1:3",
    ),
}
#: Values outside each field's range, by axis.
OUT_OF_BOX = {
    "h": (0.49999999999999994, 1.0000000000000002, -1.0, 1e308, math.nan),
    "lambda": (-5e-324, 1.0000000000000002, -1.0, 2.0),
    "v_B": (-5e-324, 1.0, 1.5),
    "gamma": (0.0, -0.0, 1.0, -0.5),
    "mu0": (-5e-324, 1.0000000000000002, 3.0),
}
IN_BOX = {
    "h": box_hs,
    "lambda": st.one_of(st.sampled_from([0.0, -0.0]), box_lams),
    "v_B": box_vbs,
    "gamma": st.one_of(st.just(0.5), box_gammas),
    "mu0": st.one_of(st.just(0.5), box_mu0s),
}


@st.composite
def refusable_axes(draw):
    """Axes of one to three values each, any of them possibly out of range."""
    return {
        axis: draw(st.lists(
            st.one_of(IN_BOX[axis], st.sampled_from(OUT_OF_BOX[axis])), min_size=1, max_size=3
        ))
        for axis in cli.AXIS_ORDER
    }


#: Grids that fail part way, in the second chunk: lam > 0 off the baseline,
#: and h far outside [0.5, 1], where the batched ladder divides by zero.
FAILING_GRIDS = {
    "sophisticated_off_baseline": (
        UnsupportedVariantError,
        ("--h", "0.5:1:3", "--lambda", "0:1:2", "--vb", "0:0.5:2100", "--gamma", "0.3:0.5:2"),
    ),
    "h_out_of_range": (
        ParameterError, ("--h", "0.5:1e308:3", "--lambda", "0:1:2", "--vb", "0:0.5:2100"),
    ),
}
BUILDERS = (
    (cli._region_rows, reference.region_rows),
    (cli._solve_rows, reference.solve_rows),
)


class TestGridRows:
    @pytest.mark.parametrize("grid", sorted(ROW_GRIDS))
    @pytest.mark.parametrize("rows, reference_rows", BUILDERS)
    def test_rows_equal_per_point_reference(self, grid, rows, reference_rows):
        axes = _axes(*ROW_GRIDS[grid])
        counts = Counter()
        got, want = rows(axes, counts), reference_rows(axes)
        assert len(got) == len(want)
        # The first row whose repr differs, not a diff of thousands of rows,
        # which pytest takes minutes to print.
        first = next((k for k, (a, b) in enumerate(zip(got, want)) if repr(a) != repr(b)), None)
        assert first is None, (first, got[first], want[first])
        # Every point's label is tallied once.
        assert sum(counts.values()) == len(got)

    def test_grids_reach_every_path(self):
        labels = {
            row[5] for grid in ROW_GRIDS.values() for row in cli._region_rows(_axes(*grid), Counter())
        }
        assert labels == {"R1", "R2", "R3", "R4", "mixed", "none"}
        baseline = _axes(*ROW_GRIDS["baseline"])
        assert math.prod(map(len, baseline.values())) > cli.GRID_CHUNK
        no_base = _axes(*ROW_GRIDS["no_baseline_point"])
        assert math.prod(map(len, no_base.values())) > cli.GRID_CHUNK
        assert 0.5 not in no_base["gamma"] and 0.5 not in no_base["mu0"]

    @pytest.mark.parametrize("grid", sorted(FAILING_GRIDS))
    @pytest.mark.parametrize("rows, reference_rows", BUILDERS)
    def test_same_error_at_same_point(self, monkeypatch, tmp_path, capsys, grid, rows,
                                      reference_rows):
        # The per-point reference raises in the second chunk; the engine
        # raises the same error before it solves or classifies any point,
        # so `main` writes no byte and creates no --out file.
        error, argv = FAILING_GRIDS[grid]
        axes = _axes(*argv)
        with pytest.raises(error) as want:
            reference_rows(axes)

        def unreachable(*args):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(cli, "classify_equilibrium", unreachable)
        monkeypatch.setattr(cli, "pooling_candidates", unreachable)
        with warnings.catch_warnings():
            # Out-of-box values must not leak numpy float warnings.
            warnings.simplefilter("error")
            with pytest.raises(error) as got:
                rows(axes, Counter())
            out = tmp_path / "out.csv"
            command = "regions" if rows is cli._region_rows else "sweep"
            assert cli.main([command, *argv, "--out", str(out)]) == 2
            assert cli.main([command, *argv]) == 2
        assert str(got.value) == str(want.value)
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"splab: error: {want.value}\n" * 2

    @settings(max_examples=150, deadline=None)
    @given(axes=refusable_axes())
    @example(axes={
        "h": [0.5, 1.0], "lambda": [0.0, 0.3], "v_B": [0.1],
        "gamma": [0.5, 0.3], "mu0": [0.5, 1.5],
    })
    @example(axes={
        "h": [0.7], "lambda": [0.0, -0.0], "v_B": [0.1, 0.2],
        "gamma": [0.5, 0.3], "mu0": [0.5, 0.2],
    })
    @example(axes={
        "h": [0.5, 0.7], "lambda": [0.0, 0.3], "v_B": [0.1],
        "gamma": [0.5], "mu0": [0.5, 0.2],
    })
    def test_refused_grids_match_reference(self, axes):
        # Out-of-box values and lam > 0 off the baseline at random axis
        # positions: the engine raises what the per-point reference raises,
        # before it classifies any point, or builds the same rows where the
        # reference refuses none.
        def outcome(build):
            try:
                return "rows", list(map(repr, build()))
            except (ParameterError, UnsupportedVariantError) as exc:
                return type(exc).__name__, str(exc)

        classified = []
        engine = cli.classify_equilibrium

        def counted(*args):
            classified.append(args)
            return engine(*args)

        want = outcome(lambda: reference.region_rows(axes))
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("error")
            patch.setattr(cli, "classify_equilibrium", counted)
            got = outcome(lambda: cli._region_rows(axes, Counter()))
        assert got == want
        assert len(classified) == (len(want[1]) if want[0] == "rows" else 0)


def _signed_axes(*argv: str) -> dict[str, list[float]]:
    """The axes of `argv`, with lambda's first value -0.0 where its text
    starts '-0': np.linspace turns a -0 end into 0.0, so no CLI axis holds
    -0.0, but the row builders take any axes."""
    axes = _axes(*argv)
    if any(arg.startswith("--lambda=-0") for arg in argv):
        axes["lambda"][0] = -0.0
    return axes


#: A grid of more than one chunk that holds every label, with lambda
#: swept from -0.0.
EVERY_LABEL_AXES = _signed_axes("--h", "0.5:1:41", "--lambda=-0:1:11", "--vb", "0:0.9:10")
#: Each grid row builder, its per-point reference and its columns.
WRITTEN = (
    (cli._region_rows, reference.region_rows, cli.REGION_COLUMNS),
    (cli._solve_rows, reference.solve_rows, cli.SOLVE_COLUMNS),
)


@st.composite
def crossing_grids(draw):
    """The axes of a grid of GRID_CHUNK + 1 to about 2.5 GRID_CHUNK points.

    h is swept; lambda is a scalar (+-0 among them) or swept from 0 or -0;
    v_B is a scalar or swept; gamma and mu0 are swept only beside a scalar
    zero lambda, the fully naive market.  The last swept axis gets the
    steps that carry the grid past one chunk.
    """
    lam = draw(st.sampled_from(["-0:1", "0:1", "-0", "0", "0.3", "1"]))
    swept = {"h": "0.5:1", "lambda": lam if ":" in lam else None}
    if draw(st.booleans()):
        swept["v_B"] = "0:0.95"
    if lam in ("-0", "0"):
        for axis in ("gamma", "mu0"):
            if draw(st.booleans()):
                swept[axis] = "0.05:0.95"
    names = [axis for axis, sweep in swept.items() if sweep]
    steps = {axis: draw(st.integers(2, 12)) for axis in names[:-1]}
    others = math.prod(steps.values())
    steps[names[-1]] = -(-(cli.GRID_CHUNK + 1) // others) + draw(
        st.integers(0, cli.GRID_CHUNK // others)
    )
    argv = [f"--lambda={lam}"]
    if "v_B" not in swept:
        argv += ["--vb", draw(st.sampled_from(["0", "0.1", "0.22", "0.3", "0.6"]))]
    for axis, count in steps.items():
        argv.append(f"--{cli.AXIS_FLAGS[axis][0]}={swept[axis]}:{count}")
    return _signed_axes(*argv)


def _written(writer, rows, columns, fmt: str) -> list[str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        writer(rows, columns, argparse.Namespace(out=None, format=fmt))
    return buffer.getvalue().splitlines()


class TestColumnWriter:
    """Grid chunks go to the writer as columns, an axis column as its axis's
    values and the chunk's indices; the bytes equal the per-point reference
    rows written by the reference writer."""

    def test_every_label_grid(self):
        counts = Counter()
        list(cli._region_rows(EVERY_LABEL_AXES, counts))
        assert set(counts) == {"R1", "R2", "R3", "R4", "mixed", "none"}
        assert sum(counts.values()) > cli.GRID_CHUNK
        assert math.copysign(1.0, EVERY_LABEL_AXES["lambda"][0]) == -1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows, reference_rows, columns", WRITTEN)
    @settings(max_examples=5, deadline=None)
    @given(axes=crossing_grids())
    @example(axes=EVERY_LABEL_AXES)
    def test_written_grid_equals_reference(self, fmt, rows, reference_rows, columns, axes):
        assert math.prod(map(len, axes.values())) > cli.GRID_CHUNK
        got = _written(cli._write_rows, rows(axes, Counter()), columns, fmt)
        want = _written(reference_writer.write_rows, reference_rows(axes), columns, fmt)
        # The first line that differs, not a diff of thousands of lines.
        first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert first is None, (first, got[first], want[first])
        assert len(got) == len(want)


def _stdout(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "call", json.loads(DIGESTS.read_text(encoding="utf-8"))["calls"],
    ids=lambda call: " ".join(call["argv"]),
)
def test_output_matches_recorded_digest(call):
    data = _stdout(call["argv"])
    assert (len(data), hashlib.sha256(data).hexdigest()) == (call["bytes"], call["sha256"])


#: Recorded calls whose points must all get a batched candidate: a regions
#: grid of baseline and fully naive points, a fully naive sweep (its gamma
#: axis misses 0.5 by an ulp) and a compare call of three chunks.
SCALAR_FREE_CALLS = (
    ("regions", "--h", "0.5:1:21", "--lambda", "0", "--vb", "0.2:0.25:3",
     "--gamma", "0.3:0.7:5", "--mu0", "0.3:0.7:5"),
    ("sweep", "--format", "csv", "--h", "0.5:1:201", "--gamma", "0.05:0.95:101",
     "--lambda", "0", "--vb", "0"),
    ("compare", "--h", "0.5:1:4097", "--vb", "0.3"),
)


def test_walker_never_calls_a_scalar_argmax(monkeypatch):
    # With both scalar argmaxes raising, every multi-point command still
    # writes its recorded bytes: each point's candidate comes from
    # pooling_candidates.
    recorded = {
        tuple(call["argv"]): call
        for call in json.loads(DIGESTS.read_text(encoding="utf-8"))["calls"]
    }

    def scalar_argmax(params):
        raise AssertionError(f"scalar argmax at {params}")

    monkeypatch.setattr(equilibrium, "best_pooling_candidate", scalar_argmax)
    monkeypatch.setattr(equilibrium, "_naive_candidate", scalar_argmax)
    # The patches reach solve_pooling's own argmax, baseline and naive.
    for params in (ModelParams(0.7, 0.3, 0.1), ModelParams(0.7, 0.0, 0.1, 0.3)):
        with pytest.raises(AssertionError, match="scalar argmax"):
            equilibrium.solve_pooling(params)
    for argv in SCALAR_FREE_CALLS:
        call = recorded[argv]
        data = _stdout(list(argv))
        assert (len(data), hashlib.sha256(data).hexdigest()) == (call["bytes"], call["sha256"])


#: compare's v_B: anywhere in [0, 1), with 0, one ulp below 1 and the band
#: (0.2, 0.5) where lambda = 0 points turn mixed drawn on their own.
compare_vbs = st.one_of(
    st.sampled_from([0.0, 1.0 - 2**-53]),
    st.floats(min_value=0.2, max_value=0.5, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)


@st.composite
def compare_h_axes(draw):
    """A compare --h axis text: 2 to 5 000 steps, one chunk's worth of h
    (2 048) and one more among them, between two h in [0.5, 1]."""
    lo, hi = sorted(draw(st.lists(box_hs, min_size=2, max_size=2, unique=True)))
    steps = draw(st.one_of(st.sampled_from([2048, 2049]), st.integers(2, 5000)))
    return f"{lo!r}:{hi!r}:{steps}"


class TestCompareRows:
    """compare walks its h axis as a (h, lambda) grid at lambda = 0 and 1 and
    pairs each chunk's points into its columns; the rows equal the per-h
    scalar reference (`reference_grid.compare_rows`) bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(h=compare_h_axes(), v_B=compare_vbs)
    @example(h="0.5:1:2048", v_B=0.0)
    @example(h="0.5:1:2049", v_B=1.0 - 2**-53)
    @example(h="0.5:1:4097", v_B=0.3)
    @example(h="0.9:1:2049", v_B=0.22)
    def test_rows_equal_per_h_reference(self, h, v_B):
        argv = ["--h", h, "--vb", repr(v_B)]
        axes = _axes(*argv)
        got, want = list(cli._compare_rows(axes)), reference.compare_rows(axes)
        assert len(got) == len(want) == len(axes["h"])
        # The first row whose repr differs, not a diff of thousands of rows.
        first = next((k for k, (a, b) in enumerate(zip(got, want)) if repr(a) != repr(b)), None)
        assert first is None, (first, got[first], want[first])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["compare", *argv, "--stats"]) == 0
        stats = json.loads(err.getvalue())
        assert (stats["points"], stats["kinds"]) == (len(want), {})
        assert out.getvalue().count("\n") == len(want) + 1


class TestMemory:
    def test_region_rows_peak_near_scalar_path(self):
        axes = _axes("--h", "0.5:1:201", "--lambda", "0:1:201", "--vb", "0.22")
        list(cli._region_rows(axes, Counter()))  # fill the caches outside the measurement
        tracemalloc.start()
        try:
            # Held in one list, as the scalar path held them.
            rows = list(cli._region_rows(axes, Counter()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 201 * 201
        assert peak <= SCALAR_PEAK_201 + 2**20

    def test_no_array_outgrows_a_chunk(self, monkeypatch):
        axes = _axes("--h", "0.5:1:501", "--lambda", "0:1:501", "--vb", "0.22")
        batched = cli.pooling_candidates
        largest, sizes = [], []

        def measured(*arrays):
            fields = batched(*arrays)
            sizes.append(max(array.size for array in (*arrays, *fields)))
            if len(sizes) % 20 == 1:
                # Every numpy buffer alive now: the chunk's index arrays, the
                # inputs read off each axis's stretch and the outputs; no
                # axis is held whole as an array.
                largest.append(max(
                    trace.size for trace in tracemalloc.take_snapshot().traces
                    if trace.domain == np.lib.tracemalloc_domain
                ))
            return fields

        monkeypatch.setattr(cli, "pooling_candidates", measured)
        # Only the arrays matter here; skipping the per-point ModelParams and
        # classify keeps the traced walk of 251 001 points short.
        monkeypatch.setattr(cli, "ModelParams", lambda *values: None)
        monkeypatch.setattr(cli, "classify_equilibrium", lambda params, candidate: (None, None))
        tracemalloc.start()
        try:
            rows = list(cli._grid_rows(axes, Counter(), lambda label, outcome: ()))
        finally:
            tracemalloc.stop()
        assert len(rows) == sum(sizes) == 501 * 501
        assert len(sizes) == math.ceil(501 * 501 / cli.GRID_CHUNK) == 62
        assert max(sizes) == cli.GRID_CHUNK and len(largest) == 4
        assert max(largest) <= cli.GRID_CHUNK * np.dtype(np.float64).itemsize

    @settings(max_examples=300, deadline=None)
    @given(shape=st.lists(st.integers(1, 12), min_size=1, max_size=3), data=st.data())
    def test_axis_column_holds_only_the_values_its_chunk_touches(self, shape, data):
        # Any run of flat indices, as a chunk takes them: on each axis it
        # may stay inside one stretch, wrap once, or wrap more often.
        size = math.prod(shape)
        start = data.draw(st.integers(0, size - 1))
        stop = data.draw(st.integers(start + 1, size))
        indices = np.unravel_index(np.arange(start, stop), shape)
        for length, index in zip(shape, indices):
            values = [float(k) for k in range(length)]
            column = cli._axis_column(values, index)
            cells = [column.values[k] for k in column.index.tolist()]
            assert all(cell is values[k] for cell, k in zip(cells, index.tolist()))
            assert len(column.values) == len(set(index.tolist()))
            assert not np.shares_memory(column.index, index)

    @staticmethod
    def _traced_peak(*argv: str) -> int:
        """The tracemalloc peak of `cli.main(argv)`, in bytes."""
        tracemalloc.start()
        try:
            assert cli.main(list(argv)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_streamed_peak_does_not_grow_with_the_grid(self, tmp_path):
        # A 3-chunk and a 10-chunk map, each written to a file: every chunk
        # is solved, formatted and written before the next, so the traced
        # peak of the whole command holds about two chunks either way.
        # Each chunk is one full lambda sweep at an h in a narrow band, so
        # the chunks hold alike (a chunk's share of the peak varies by some
        # hundred kB over h in [0.5, 1]).
        def peak(steps: int) -> int:
            return self._traced_peak(
                "regions", "--h", f"0.7:0.75:{steps}", "--lambda", "0:1:4096",
                "--vb", "0.22", "--out", str(tmp_path / f"{steps}.csv"),
            )

        assert cli.GRID_CHUNK == 4096
        peak(3)  # fill the caches outside the measurement
        small, large = peak(3), peak(10)
        assert abs(large - small) <= 256 * 1024, (small, large)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_axis_peak_grows_by_little_per_value(self, tmp_path, fmt):
        # One h axis 16 and 1 chunks long.  The walk holds per h value the
        # axis's float list and itertools.product's tuple copy of it, about
        # 40 B, and a chunk only the stretch of the axis it touches: 53-72 B
        # in all.  A walk that also keeps the whole axis as an array and as
        # texts grows by 132-151 B.
        def peak(steps: int) -> int:
            return self._traced_peak(
                "regions", "--h", f"0.5:1:{steps}", "--lambda", "0.3", "--vb", "0.22",
                "--format", fmt, "--out", str(tmp_path / f"{steps}.{fmt}"),
            )

        peak(4096)  # fill the caches outside the measurement
        small, large = peak(4096), peak(65536)
        assert large - small <= 100 * (65536 - 4096), (small, large)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_wrapped_axis_peak_grows_by_little_per_value(self, tmp_path, fmt):
        # Two h values and a lambda axis one chunk and 16 chunks long: the
        # chunk that holds the first lambda's end wraps to its start, so it
        # touches the axis's last value and its first 4095.  It keeps only
        # those two pieces, and the walk grows by the axis's float list and
        # product's tuple copy of it: 48-52 B per lambda value.  A chunk that
        # kept the whole axis from its least index to its greatest, with its
        # texts, grows by 98-112 B.
        def peak(steps: int) -> int:
            return self._traced_peak(
                "regions", "--h", "0.5:1:2", "--lambda", f"0:1:{steps}", "--vb", "0.22",
                "--format", fmt, "--out", str(tmp_path / f"{steps}.{fmt}"),
            )

        assert cli.GRID_CHUNK == 4096
        peak(4097)  # fill the caches outside the measurement
        small, large = peak(4097), peak(65537)
        assert large - small <= 75 * (65537 - 4097), (small, large)
