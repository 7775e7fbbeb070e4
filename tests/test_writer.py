"""The row writer against the reference writer, byte for byte.

`splab.cli._write_rows` formats each distinct cell of a column once and
writes JSON from a row template; `tests/reference_writer.py` is the body it
replaced (`csv.writer` over `fmt`, one `json.dumps(..., indent=2)`).  Tables
are drawn from a small pool of cells per test, so values repeat within a
column, and the pool mixes the cells a formatter keyed on values could
confuse: 0.0 with -0.0, 1 with 1.0, NaN, and the infinities.  The writer
formats at most GRID_CHUNK rows at a time, and writes them before it pulls
the next chunk, so deterministic tables of more rows cross chunk boundaries,
with shared and distinct cell objects, as a grid's axis and profit columns
hold them.  A chunk's columns of one kind share one table of texts, and a
JSON chunk writes the columns whose texts are all equal into its row
template, so the last tests hold the cases those two could get wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from splab.cli import GRID_CHUNK, _write_rows

import reference_writer as reference

FORMATS = ("csv", "json")
#: Column names: the CLI's, then ones that need CSV quoting or JSON
#: escaping, and one holding a '%' (the JSON row template is a %-template).
COLUMNS = (
    "h", "lambda", "price", "region", "candidate_level",
    "a,b", 'say "hi"', "100%s", "mu₀", "tab\tnew\nline",
)
LABELS = (
    "R1", "R2", "R3", "R4", "R5", "mixed", "none", "pooling", "", "a,b", '"q"',
    "%", "%%", "5%s",
)
SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 0.1 + 0.2,
    1.0, 2.0, 0.123456789012345, 1e-7, 123456789012.5,
)
cells = st.one_of(
    st.none(),
    st.sampled_from(LABELS),
    st.integers(1, 5),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, len(COLUMNS)))
    columns = draw(st.permutations(COLUMNS))[:width]
    pool = draw(st.lists(cells, min_size=1, max_size=12))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * width), max_size=40))
    return columns, rows


def _stdout(writer, rows, columns, fmt: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        writer(rows, columns, argparse.Namespace(out=None, format=fmt))
    return buffer.getvalue()


def _file(writer, rows, columns, fmt: str, path: Path) -> bytes:
    writer(rows, columns, argparse.Namespace(out=str(path), format=fmt))
    return path.read_bytes()


ZERO_AND_ONE = (
    ("h", "candidate_level"),
    [(0.0, 1), (-0.0, 1.0), (0.0, 1), (-0.0, 1.0), (math.nan, None), (math.nan, "R1")],
)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=200, deadline=None)
@given(table=tables())
@example(table=ZERO_AND_ONE)
def test_writer_matches_reference(fmt, table):
    columns, rows = table
    assert _stdout(_write_rows, rows, columns, fmt) == _stdout(
        reference.write_rows, rows, columns, fmt
    )
    with tempfile.TemporaryDirectory() as tmp:
        got = _file(_write_rows, rows, columns, fmt, Path(tmp) / "got")
        want = _file(reference.write_rows, rows, columns, fmt, Path(tmp) / "want")
    assert got == want


@pytest.mark.parametrize("fmt, text", [("csv", "h,price\n"), ("json", "[]\n")])
def test_zero_rows(fmt, text, tmp_path):
    assert _stdout(_write_rows, [], ("h", "price"), fmt) == text
    assert _file(_write_rows, [], ("h", "price"), fmt, tmp_path / "out") == text.encode()


def test_signed_zeros_and_non_finite_floats_print_as_json_dumps_does():
    rows = [(0.0,), (-0.0,), (math.nan,), (math.inf,), (-math.inf,), (0.0,), (-0.0,)]
    text = _stdout(_write_rows, rows, ("x",), "json")
    assert [line.split(": ")[1].rstrip(",") for line in text.splitlines() if ": " in line] == [
        "0.0", "-0.0", "NaN", "Infinity", "-Infinity", "0.0", "-0.0",
    ]
    assert _stdout(_write_rows, rows, ("x",), "csv").splitlines()[1:] == [
        "0", "-0", "nan", "inf", "-inf", "0", "-0",
    ]


#: Floats a grid column repeats: signed zeros, subnormals, and the values
#: '%.12g' prints in exponent form or rounds.
GRID_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e12, 123456789012.5,
    1e13 + 0.5, 1e15, 9999999999999998.0, 1e16, 0.1 + 0.2, 0.5,
)
GRID_COLUMNS = ("h", "profit", "level", "a,b", "price", "label", 'say "hi"', "100%s")


def _grid_table(size: int) -> list[tuple]:
    """`size` rows: an axis-like column of shared floats, a column of
    distinct floats, ints 1..5 beside 1.0 and 2.0, a column that is mostly
    None, labels, a non-finite column, and a column of None only."""
    labels = ("R1", "mixed", "a,b", '"q"', None)
    levels = (1, 2, 3, 4, 5, 1.0, 2.0, None)
    rows = []
    for k in range(size):
        # float() of a str builds a new object per row, equal values included.
        distinct = float(repr(GRID_FLOATS[k % len(GRID_FLOATS)] * (1 + k % 3)))
        rows.append((
            GRID_FLOATS[k // 7 % len(GRID_FLOATS)],
            distinct,
            levels[k % len(levels)],
            float(repr((k % 11) * 0.1)) if k % 3 == 0 else None,
            (math.nan, math.inf, -math.inf, distinct)[k % 4],
            labels[k % len(labels)],
            None,
            k,
        ))
    return rows


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("size", [GRID_CHUNK, GRID_CHUNK + 1, 2 * GRID_CHUNK + 7])
def test_grid_sized_tables_match_reference(fmt, size, tmp_path):
    rows = _grid_table(size)
    want = _stdout(reference.write_rows, rows, GRID_COLUMNS, fmt)
    assert _stdout(_write_rows, rows, GRID_COLUMNS, fmt) == want
    assert _file(_write_rows, rows, GRID_COLUMNS, fmt, tmp_path / "out") == want.encode()


@pytest.mark.parametrize("fmt", FORMATS)
def test_each_chunk_is_written_before_the_next_is_pulled(fmt):
    # The writer takes any iterable and holds one chunk at a time: when it
    # pulls the first row of chunk k, exactly the CSV header and chunks
    # 0..k-1 are written.
    rows = _grid_table(2 * GRID_CHUNK + 7)
    buffer = io.StringIO()
    written = []

    def pulled():
        for k, row in enumerate(rows):
            if k % GRID_CHUNK == 0:
                written.append(len(buffer.getvalue()))
            yield row

    with contextlib.redirect_stdout(buffer):
        _write_rows(pulled(), GRID_COLUMNS, argparse.Namespace(out=None, format=fmt))
    assert buffer.getvalue() == _stdout(reference.write_rows, rows, GRID_COLUMNS, fmt)
    closing = len("\n]\n") if fmt == "json" else 0
    assert written == [
        len(_stdout(reference.write_rows, rows[:k * GRID_CHUNK], GRID_COLUMNS, fmt)) - closing
        for k in (0, 1, 2)
    ]


def _assert_matches_reference(rows, columns, fmt):
    assert _stdout(_write_rows, rows, columns, fmt) == _stdout(
        reference.write_rows, rows, columns, fmt
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_int_column_beside_float_column_of_equal_values(fmt):
    # One table per kind: 1 and 1.0 are equal keys, but print 1 and 1.0.
    rows = [(k % 2 + 1, float(k % 2 + 1), k % 2 + 1.0, 2 - k % 2) for k in range(6)]
    _assert_matches_reference(rows, ("level", "price", "profit", "rank"), fmt)
    # An int 0 shares its kind's table; a float zero keeps 0.0 and -0.0 apart.
    rows = [(k % 3, (0.0, -0.0, 1.0)[k % 3], k % 3 - 1, -0.0) for k in range(6)]
    _assert_matches_reference(rows, ("level", "price", "rank", "profit"), fmt)
    # Each column constant, so JSON folds them all into the template.
    _assert_matches_reference([(1, 1.0, 2, 2.0)] * 3, ("a", "b", "c", "d"), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_constant_columns_holding_percent_signs(fmt):
    # Folded into the JSON row template, '%' and '%%' must print as they are.
    rows = [("%", "%%", "5%s", k * 0.5, "100%") for k in range(5)]
    _assert_matches_reference(rows, ("a", "100%s", "%%", "x%", "%d"), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_chunk_whose_every_column_is_constant(fmt):
    rows = [(0.5, "R2", None, 3, "%")] * 7
    _assert_matches_reference(rows, ("h", "region", "alpha", "level", "100%s"), fmt)
    _assert_matches_reference([(0.25,)] * 3, ("h",), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("size", [GRID_CHUNK + 1, 2 * GRID_CHUNK])
def test_column_constant_in_one_chunk_and_varying_in_the_next(fmt, size):
    # "early" is constant in the first chunk only, "late" in the last only,
    # and "ends" varies inside every chunk between equal first and last texts.
    rows = [
        (0.25 if k < GRID_CHUNK else k * 0.5, k * 0.5 if k < GRID_CHUNK else "R1",
         "R2" if k % GRID_CHUNK in (0, GRID_CHUNK - 1) else "R4")
        for k in range(size)
    ]
    _assert_matches_reference(rows, ("early", "late", "ends"), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_all_none_columns(fmt):
    rows = [(None, k * 0.5, None) for k in range(4)]
    _assert_matches_reference(rows, ("low_price", "price", "alpha"), fmt)
    # One column of None only: CSV prints each row as '""'.
    _assert_matches_reference([(None,)] * 3, ("alpha",), fmt)
