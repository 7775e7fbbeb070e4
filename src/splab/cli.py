"""splab command line: parameter sweeps, region maps, and verification.

Subcommands:
    solve       equilibrium at a single parameter point
    sweep       equilibrium at every point of a parameter grid
    regions     classification map (R1..R4 / mixed / none) over a grid
    compare     naive-vs-sophisticated profit curves along an h sweep
    thresholds  comparative-statics threshold dump at one parameter point
    verify      run the oracle verification suite (exit 3 on failure)

Parameters are given as flags (``--h``, ``--lambda``, ``--vb``, ``--gamma``,
``--mu0``), each either a scalar (``--h 0.7``) or an axis ``min:max:steps``
(``--h 0.5:1:51``, steps >= 2); a grid holds at most 10^6 points.  A JSON
config file (``--config``) may supply the same keys; explicit flags override
it.  Output goes to ``--out`` or stdout as CSV (default) or JSON; floats are
fixed at 12 significant digits so identical runs are byte-identical.  A
grid is solved, formatted and written one chunk at a time, so memory grows
with its axes, not its points; a refused point is found before the first byte.
``--stats`` adds one JSON line on stderr: the points, the tally of their
labels and the seconds spent parsing, solving and writing; stdout is unchanged.

Examples:
    splab solve --h 0.7 --lambda 1 --vb 0.1
    splab regions --h 0.5:1:51 --lambda 0:1:51 --vb 0.1 --out map.csv
    splab compare --h 0.5:1:501 --vb 0.1 --format json
    splab thresholds --h 0.7 --lambda 0.3 --vb 0.1
    splab verify --seed 0 --draws 200000
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import astuple, fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .demand import build_wtp_schedule, expected_demand
from .equilibrium import (
    PoolingCandidate,
    ThresholdSet,
    _argmax_level,
    _level_profit_G,
    classify_equilibrium,
    pooling_candidates,
    solve_pooling,
    thresholds,
)
from .model import (
    BASE,
    FIELD_RANGES,
    ModelParams,
    ParameterError,
    Quality,
    UnsupportedVariantError,
)
from .oracle import (
    bisect_threshold,
    consumer_cells,
    demand_by_enumeration,
    grid_argmax,
    simulate_market,
)


class UsageError(Exception):
    """Bad flags, config, or axis syntax; maps to exit code 2."""


class StdoutError(Exception):
    """A write to stdout failed; its OSError is the `__cause__`.  `main`
    reports it, and only it, as "cannot write stdout"."""


#: The grid axes, in ModelParams' field order.
AXIS_ORDER = ("h", "lambda", "v_B", "gamma", "mu0")
AXIS_DEFAULTS = {"lambda": 0.0, "v_B": 0.1, "gamma": BASE, "mu0": BASE}
#: Each axis's flag (without dashes) and argparse dest, in AXIS_ORDER.
AXIS_FLAGS = {
    "h": ("h", "h"), "lambda": ("lambda", "lam"), "v_B": ("vb", "vb"),
    "gamma": ("gamma", "gamma"), "mu0": ("mu0", "mu0"),
}
CONFIG_KEYS = set(AXIS_ORDER) | {"format", "out"}
#: Seeded points at which `verify` compares the threshold closed forms with
#: bisection on the ladder.
THRESHOLD_POINTS = 8
#: Largest grid (product of the axis step counts) a command will build; 4x
#: the 501 x 501 maps the tool is meant for.
MAX_GRID_POINTS = 10**6
#: Largest `verify --seed`: the Monte-Carlo check seeds its runs with
#: seed + 0..5, and a Philox key must stay below 2**128.
MAX_VERIFY_SEED = 2**128 - 6
#: Largest `verify --draws`.  At this bound `verify --seed 0` takes 9.0 s on
#: a 2-vCPU x86-64 machine, most of it its six Monte-Carlo runs, each
#: simulated once.
MAX_VERIFY_DRAWS = 10**8
#: Two-sided tail beyond 4 sigma, the Monte-Carlo check's bound on an
#: all-bought or none-bought run, which has no sample SE.
MC_TAIL = math.erfc(4.0 / math.sqrt(2.0))
#: Most grid points whose candidate argmax one numpy pass computes, and most
#: rows the writer pulls, formats and writes at once, so none of them holds
#: more than a few hundred kB whatever the grid's size.  Even, so `compare`'s
#: two points per h always share a chunk.
GRID_CHUNK = 4096

SOLVE_COLUMNS = (
    *AXIS_ORDER,
    "kind", "price", "low_price", "alpha",
    "profit_G", "profit_B", "region", "candidate_level",
)
REGION_COLUMNS = (*AXIS_ORDER, "classification", "price", "profit_G", "profit_B")
COMPARE_COLUMNS = (
    "h", "profit_G_naive", "profit_G_soph", "profit_B_naive", "profit_B_soph",
)
THRESHOLD_COLUMNS = ("h", "lambda", "v_B", *(f.name for f in fields(ThresholdSet)))


def _texts(values: list, as_json: bool) -> list:
    """The cell texts of values that are all str, all int or all float.

    CSV prints a number with 12 significant digits and a str as csv.writer
    quotes it (`_csv_field`); JSON prints them as `json.dumps` does, a float
    after rounding to those 12 digits.  Each kind is one map over the list.
    """
    first = values[0]
    if isinstance(first, str):
        return list(map(encode_basestring_ascii if as_json else _csv_field, values))
    if as_json and isinstance(first, int):
        return list(map(int.__repr__, values))
    texts = list(map("%.12g".__mod__, values))
    if not as_json:
        return texts
    # A positional text with a point is already the repr of the float it
    # parses to: 12 digits tell apart floats of magnitude 1e-4 and up, so no
    # shorter text parses to the same float.  Whole numbers, exponent forms
    # and the non-finite floats are parsed and printed again.
    return [text if "." in text and "e" not in text else _json_float(text) for text in texts]


def _json_float(text: str) -> str:
    """`json.dumps` of the float that '%.12g' printed as `text`."""
    value = float(text)
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _csv_field(text: str) -> str:
    """`text` as csv.writer prints it beside other fields of a row: quoted
    where QUOTE_MINIMAL quotes it, by the rules of the running Python."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((text, None))
    return line.getvalue()[:-2]


def _csv_lines(columns: Sequence[list]) -> str:
    """The CSV lines of cell texts given column by column.  A row whose one
    field is empty prints as '""', as csv.writer prints it."""
    if len(columns) == 1:
        columns = [[text or '""' for text in columns[0]]]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _column_texts(columns: Sequence[Sequence], as_json: bool) -> list[list]:
    """The cell texts of a chunk's columns, each distinct cell formatted once.

    A cell is None, a str, an int or a float; None prints as '' or null.  A
    column of one kind (all str, all int or all float, beside None) is keyed
    by value, in one table per kind that all such columns of the chunk
    share: a map's labels and prices repeat by value in objects of their
    own, one per point, and the naive market's price and profits are often
    one float.  A column of None only shares a table that holds None alone.
    Equal cells print apart only across kinds (1 and 1.0), which tables of
    their own keep apart, or as the two float zeros (0.0 and -0.0), so a
    column that mixes kinds or holds a float zero is keyed by identity, in a
    table of its own, and one that mixes kinds is formatted one value at a
    time.
    """
    null = "null" if as_json else ""
    texts: list = [None] * len(columns)
    by_kind: dict[Optional[type], list[int]] = {}
    for k, values in enumerate(columns):
        kinds = set(map(type, values))
        kinds.discard(type(None))
        if len(kinds) > 1 or float in kinds and 0.0 in values:
            keys = list(map(id, values))
            distinct = dict(zip(keys, values))
            distinct.pop(id(None), None)
            objects = list(distinct.values())
            if len(kinds) == 1:
                printed = _texts(objects, as_json)
            else:
                printed = [_texts([value], as_json)[0] for value in objects]
            table = dict(zip(distinct, printed))
            table[id(None)] = null
            texts[k] = list(map(table.__getitem__, keys))
        else:
            # A column of None only shares the table keyed None.
            by_kind.setdefault(next(iter(kinds), None), []).append(k)
    for shared in by_kind.values():
        distinct = dict.fromkeys(itertools.chain.from_iterable(columns[k] for k in shared))
        distinct.pop(None, None)
        table = dict(zip(distinct, _texts(list(distinct), as_json) if distinct else ()))
        table[None] = null
        for k in shared:
            texts[k] = list(map(table.__getitem__, columns[k]))
    return texts


def _json_rows(heads: Sequence[str], cells: Sequence[list]) -> str:
    """A JSON chunk's row objects, separated by commas, from one row template.

    `heads` are the columns' '    <name>: ' and `cells` their texts.  A
    column whose texts are all equal is written into the template, so '%'
    fills only the fields that vary; '%' is escaped in the heads and in the
    texts folded in.
    """
    fields, varying = [], []
    for head, texts in zip(heads, cells):
        if texts.count(texts[0]) == len(texts):
            fields.append((head + texts[0]).replace("%", "%%"))
        else:
            fields.append(head.replace("%", "%%") + "%s")
            varying.append(texts)
    template = "  {\n%s\n  }" % ",\n".join(fields)
    if not varying:
        return ",\n".join([template % ()] * len(cells[0]))
    return ",\n".join(map(template.__mod__, zip(*varying)))


def parse_axis(raw, name: str) -> tuple[float, float, int]:
    """A scalar or a 'min:max:steps' range, as (min, max, steps).

    `name` is the flag, without its dashes.  A scalar v is (v, v, 1).  Every
    value, and a range's width max - min, must be finite.  Nothing is
    allocated here, so the grid size can be bounded, and bad values refused,
    before any axis is built.
    """
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError as exc:
            raise UsageError(f"--{name} values must be finite, got {raw!r}") from exc
        _require_finite(name, repr(raw), value)
        return value, value, 1
    text = str(raw).strip()
    if ":" not in text:
        try:
            value = float(text)
        except ValueError as exc:
            raise UsageError(f"cannot parse --{name} value {text!r}") from exc
        _require_finite(name, text, value)
        return value, value, 1
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name} range must be min:max:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--{name} range must be min:max:steps, got {text!r}") from exc
    _require_finite(name, text, lo, hi)
    if steps < 2:
        raise UsageError(f"--{name}: swept axis needs steps >= 2, got {steps}")
    if not lo < hi:
        raise UsageError(f"--{name}: range needs min < max, got {text!r}")
    if not math.isfinite(hi - lo):
        raise UsageError(f"--{name}: range width max - min must be finite, got {text!r}")
    return lo, hi, steps


def _require_finite(name: str, text: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise UsageError(f"--{name} values must be finite, got {text!r}")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError covers malformed JSON and text that is not UTF-8.
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"cannot read config {path}: it nests too deeply") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    unknown = set(config) - CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    out = config.get("out")
    if out is not None and not isinstance(out, str):
        raise UsageError(f"config out must be a file name, got {out!r}")
    config_format = config.get("format")
    if config_format is not None and config_format not in ("csv", "json"):
        raise UsageError(f"config format must be csv or json, got {config_format!r}")
    return config


def _resolve_axes(args, config: dict) -> dict[str, list[float]]:
    """Merge flags over config over defaults into per-axis value lists."""
    specs: dict[str, tuple[float, float, int]] = {}
    for axis, (flag, dest) in AXIS_FLAGS.items():
        raw = getattr(args, dest)
        if raw is None:
            raw = config.get(axis)
        if raw is None:
            if axis == "h":
                raise UsageError("--h is required (scalar or min:max:steps)")
            raw = AXIS_DEFAULTS[axis]
        specs[axis] = parse_axis(raw, flag)
    size = math.prod(steps for _, _, steps in specs.values())
    if size > MAX_GRID_POINTS:
        raise UsageError(f"grid has {size} points; at most {MAX_GRID_POINTS} allowed")
    return {
        axis: [float(v) for v in np.linspace(lo, hi, steps)]
        for axis, (lo, hi, steps) in specs.items()
    }


class AxisColumn(NamedTuple):
    """A grid chunk's column of one axis: its cell k is `values[index[k]]`.

    `values` holds the values of the axis that the chunk touches, and
    `index` each cell's index into it, so a chunk holds no more of an axis
    than its own cells span.
    """

    values: list
    index: np.ndarray


def _axis_column(values: list, index: np.ndarray) -> AxisColumn:
    """The column of the axis `values` at the indices `index`: the values
    the indices touch, as the axis's own float objects, and the indices
    shifted into them (a new array, not a view of `index`).

    In product order a chunk's indices run up the axis from index[0],
    wrapping to its start each time they pass its end.  Where they wrap
    once and stop short of index[0] (index[-1] + 1 is never reached), the
    chunk touches two pieces, values[index[0]:] and values[:index[-1] + 1],
    and only those are kept.  Otherwise it touches the stretch from its
    least index to its greatest: one run up the axis, or the whole axis.
    """
    first, last = int(index[0]), int(index[-1])
    if last < first and not (index == last + 1).any():
        return AxisColumn(values[first:] + values[:last + 1], (index - first) % len(values))
    lo, hi = index.min(), index.max()
    return AxisColumn(values[lo:hi + 1], index - lo)


def _chunk_rows(chunk: list) -> Iterator[tuple]:
    """A chunk's rows from its columns; an AxisColumn's cells are its values
    at its indices."""
    return zip(*(
        map(column.values.__getitem__, column.index.tolist())
        if isinstance(column, AxisColumn) else column
        for column in chunk
    ))


class LazyRows:
    """Rows built as they are read: `len()` is their number, `chunks()`
    walks them afresh as chunks of columns (`_grid_chunks`), and iterating
    walks them afresh row by row."""

    def __init__(self, size: int, chunks: Callable[[], Iterator[list]]) -> None:
        self._size, self.chunks = size, chunks

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple]:
        return itertools.chain.from_iterable(map(_chunk_rows, self.chunks()))


def _refuse_grid(axes: dict[str, list[float]]) -> None:
    """Raise what the first refused grid point raises, before any is solved.

    A point is refused where a value lies outside its field's range
    (`model.FIELD_RANGES`), or where lam > 0 off the baseline (gamma or mu0
    not 0.5), which solve_pooling refuses.  Each is a condition on one or
    two axes, so the first refused point in product order is the least of a
    few points found from the axes alone: each axis's first value out of
    range with every other axis at its first value, and the first nonzero
    lam with the first gamma, or the first mu0, that is not 0.5.  That point
    raises through ModelParams and solve_pooling, as the per-point walk
    would raise there.
    """
    lists = [axes[axis] for axis in AXIS_ORDER]

    def first(axis: int, refused) -> Optional[int]:
        return next((k for k, value in enumerate(lists[axis]) if refused(value)), None)

    # Each set of refused points, as {axis: the first index it refuses};
    # its first point has every other axis at index 0.
    firsts = [
        {axis: first(axis, lambda value: not in_range(value))}
        for axis, (in_range, _) in enumerate(FIELD_RANGES.values())
    ]
    lam, gamma, mu0 = map(AXIS_ORDER.index, ("lambda", "gamma", "mu0"))
    firsts += [
        {lam: first(lam, lambda value: value != 0.0), axis: first(axis, lambda value: value != BASE)}
        for axis in (gamma, mu0)
    ]
    # Tuples of indices compare in product order.
    refused = [
        tuple(at.get(axis, 0) for axis in range(len(lists)))
        for at in firsts if None not in at.values()
    ]
    if refused:
        point = (values[k] for values, k in zip(lists, min(refused)))
        solve_pooling(ModelParams(*point))


def _grid_rows(axes: dict[str, list[float]], counts: Counter, row) -> LazyRows:
    """The grid's rows in product order: each point's axis values in
    AXIS_ORDER, then `row(label, outcome)`, the output fields of its
    `classify_equilibrium`.

    A grid with a refused point raises here, before any point is solved
    (`_refuse_grid`).  Otherwise the rows come back lazily: each walk solves
    the points in chunks of at most GRID_CHUNK, one chunk when it is pulled,
    so only one chunk is alive at a time (`_grid_chunks`).
    """
    _refuse_grid(axes)
    lists = [axes[axis] for axis in AXIS_ORDER]
    return LazyRows(math.prod(map(len, lists)), lambda: _grid_chunks(lists, counts, row))


def _grid_chunks(lists: list[list[float]], counts: Counter, row) -> Iterator[list]:
    """The rows of `_grid_rows`, one list of columns per chunk.

    A chunk's points are the grid's flat indices start..start+chunk-1, and
    one `np.unravel_index` call gives each axis's indices there.  An axis
    column is the values of the axis's value list that those indices touch,
    with the indices into them (`_axis_column`), so the rows share the
    axes' float objects and no axis is held whole beyond its list.  The
    candidate pass reads each axis's values from its column, and the output
    columns follow (`_output_columns`).
    """
    shape = tuple(map(len, lists))
    size = math.prod(shape)
    points = itertools.product(*lists)
    for start in range(0, size, GRID_CHUNK):
        chunk = min(GRID_CHUNK, size - start)
        flat = np.arange(start, start + chunk)
        axes = list(map(_axis_column, lists, np.unravel_index(flat, shape)))
        fields = [np.array(column.values)[column.index] for column in axes]
        outputs = _output_columns(itertools.islice(points, chunk), fields, counts, row)
        yield [*axes, *outputs]


def _output_columns(points: Iterator[tuple], fields: list, counts: Counter, row) -> list[list]:
    """The columns of `row(label, outcome)` over a chunk's points.

    `points` are the points' axis values and `fields` the same as arrays.
    One `pooling_candidates` call takes the candidate argmax at every point
    (the baseline and the fully naive market, the only points
    `_refuse_grid` lets through), and its arrays become lists before the
    first point is solved.  Only the fields `row` picks from each outcome
    are kept, and the chunk's labels are tallied in `counts`.

    A point then costs one ModelParams, one PoolingCandidate, one
    classify_equilibrium call and the EquilibriumOutcome it returns.  The
    candidate is built as `PoolingCandidate._make` builds one, by
    `tuple.__new__`, without a Python-level call per point; its length
    holds because `pooling_candidates` returns one array per field.  The
    ModelParams and the call stay per point because the traced benchmark
    tallies region kinds at `cli.classify_equilibrium` and counts
    ModelParams builds, until it reads `--stats` instead (ROADMAP item 1).
    Both names are read from this module's globals when a chunk is solved,
    so the tracer's wrappers and the tests' replacements take effect.
    """
    arrays = pooling_candidates(*fields)
    candidates = map(
        tuple.__new__, itertools.repeat(PoolingCandidate),
        zip(*(array.tolist() for array in arrays)),
    )
    solved = map(classify_equilibrium, itertools.starmap(ModelParams, points), candidates)
    # Each point's fields join one flat list, so no tuple per point outlives
    # its point; column k is every width-th cell from cell k.
    labels, cells = [], []
    for label, outcome in solved:
        labels.append(label)
        cells += row(label, outcome)
    counts.update(labels)
    width = len(cells) // len(labels)
    return [cells[k::width] for k in range(width)]


def _solve_rows(axes: dict[str, list[float]], counts: Counter) -> LazyRows:
    return _grid_rows(axes, counts, lambda _, out: (
        out.kind, out.price, out.low_price, out.alpha,
        out.profit_G, out.profit_B, out.region, out.candidate_level,
    ))


def _region_rows(axes: dict[str, list[float]], counts: Counter) -> LazyRows:
    return _grid_rows(axes, counts, lambda label, out: (
        label, out.price, out.profit_G, out.profit_B,
    ))


def _compare_rows(axes: dict[str, list[float]]) -> LazyRows:
    for fixed in ("gamma", "mu0"):
        if len(axes[fixed]) != 1:
            raise UsageError(f"compare does not sweep --{fixed}")
    if len(axes["v_B"]) != 1:
        raise UsageError("compare needs a scalar --vb")
    gamma, mu0 = axes["gamma"][0], axes["mu0"][0]
    if gamma != BASE or mu0 != BASE:
        # Its lambda=1 market exists only on the symmetric baseline.
        raise UsageError(
            f"compare needs --gamma {BASE} and --mu0 {BASE}, the symmetric baseline "
            f"on which it solves lambda=1; got gamma={gamma!r}, mu0={mu0!r}"
        )
    # lambda = 0 and 1 at each h, side by side in product order; GRID_CHUNK
    # is even, so each chunk pairs into compare's columns.  A point that does
    # not pool (a lambda = 0 one may turn mixed) prints no profits.
    pairs = _grid_rows({**axes, "lambda": [0.0, 1.0]}, Counter(), lambda _, out: (
        (out.profit_G, out.profit_B) if out.kind == "pooling" else (None, None)
    ))
    return LazyRows(len(pairs) // 2, lambda: (
        [AxisColumn(h.values, h.index[::2]), G[::2], G[1::2], B[::2], B[1::2]]
        for h, *_, G, B in pairs.chunks()
    ))


def _threshold_rows(axes: dict[str, list[float]]) -> list[tuple]:
    for axis in AXIS_ORDER:
        if len(axes[axis]) != 1:
            raise UsageError("thresholds takes scalar parameters only")
    values = tuple(axes[axis][0] for axis in AXIS_ORDER)
    return [(*values[:3], *astuple(thresholds(ModelParams(*values))))]


@contextlib.contextmanager
def _writing(out: Optional[str]):
    """Report an OSError of the block as a failed write: a UsageError naming
    the --out file `out`, or a StdoutError when `out` is None."""
    try:
        yield
    except OSError as exc:
        if out:
            raise UsageError(f"cannot write --out {out}: {exc}") from exc
        raise StdoutError(exc) from exc


@contextlib.contextmanager
def _output(out: Optional[str]):
    """The --out file `out`, open for writing, or stdout when `out` is None.
    Failing to open or close --out is reported as `_writing` reports it."""
    with _writing(out):
        fh = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        yield fh
    except BaseException:
        # The first error stands; closing may only fail the same write again.
        if out:
            with contextlib.suppress(OSError):
                fh.close()
        raise
    if out:
        with _writing(out):
            fh.close()


def _column_chunks(rows: Iterable[tuple]) -> Iterator[list]:
    """`rows` as chunks of at most GRID_CHUNK rows, each a list of columns:
    a LazyRows' own chunks, or any other rows transposed chunk by chunk."""
    if isinstance(rows, LazyRows):
        return rows.chunks()
    rows = iter(rows)
    return iter(lambda: list(zip(*itertools.islice(rows, GRID_CHUNK))), [])


def _write_rows(rows: Iterable[tuple], columns: Sequence[str], args) -> float:
    """Write rows, tuples in the order of `columns`, as CSV or JSON, and
    return the seconds spent waiting for them.

    The CSV prints each number with 12 significant digits, and quotes a str
    as csv.writer does.  The JSON equals `json.dumps(..., indent=2)` of a
    list holding one object per row, each float rounded to those 12 digits,
    plus a newline.  Rows are pulled as chunks of columns (`_column_chunks`),
    and each chunk is formatted and written before the next is pulled, so a
    lazy grid (`_grid_rows`) is solved, formatted and written one chunk at a
    time.  An axis column (`AxisColumn`) takes its texts by index from
    those of its values, formatted once per chunk (`_texts`), so nothing
    is kept from one chunk to the next; the chunk's other columns are
    formatted together, with one table of texts per kind of cell
    (`_column_texts`).  A CSV chunk's lines are joined from its texts
    (`_csv_lines`).  A JSON chunk is written from one row template, built
    per chunk from the unescaped column heads, into which every column
    whose texts are all equal in that chunk is written once (`_json_rows`).

    Failing to open, write or close --out is a UsageError, and a failed
    stdout write a StdoutError; an error raised while pulling rows
    propagates as it is.  Either way the chunks already written stay, a
    prefix of the output.
    """
    as_json = args.format == "json"
    heads = ["    %s: " % encode_basestring_ascii(name) for name in columns]

    def texts(chunk: list) -> list[list]:
        others = iter(_column_texts(
            [column for column in chunk if not isinstance(column, AxisColumn)], as_json
        ))
        return [
            np.array(_texts(column.values, as_json), dtype=object)[column.index].tolist()
            if isinstance(column, AxisColumn) else next(others)
            for column in chunk
        ]

    chunks = _column_chunks(rows)
    opener, waited = "[\n", 0.0
    with _output(args.out) as fh:
        if not as_json:
            with _writing(args.out):
                fh.write(_csv_lines([[_csv_field(name)] for name in columns]))
        while True:
            pulled = time.perf_counter()
            chunk = next(chunks, None)
            waited += time.perf_counter() - pulled
            if chunk is None:
                break
            cells = texts(chunk)
            with _writing(args.out):
                if as_json:
                    fh.write(opener + _json_rows(heads, cells))
                else:
                    fh.write(_csv_lines(cells))
            opener = ",\n"
        if as_json:
            with _writing(args.out):
                fh.write("[]\n" if opener == "[\n" else "\n]\n")
    return waited


# ---------------------------------------------------------------------------
# Verification suite (the `verify` subcommand).
# ---------------------------------------------------------------------------


def _random_base_params(rng: np.random.Generator) -> ModelParams:
    return ModelParams(
        h=float(rng.uniform(0.5, 1.0)),
        lam=float(rng.uniform(0.0, 1.0)),
        v_B=float(rng.uniform(0.0, 0.95)),
    )


def _random_naive_params(rng: np.random.Generator) -> ModelParams:
    """A fully naive market (lam = 0) with a free precision mix and prior."""
    return ModelParams(
        h=float(rng.uniform(0.5, 1.0)),
        lam=0.0,
        v_B=float(rng.uniform(0.0, 0.95)),
        gamma=float(rng.uniform(0.01, 0.99)),
        mu0=float(rng.uniform(0.0, 1.0)),
    )


def _check_oracle_agreement(rng: np.random.Generator) -> tuple[bool, str]:
    mismatches = 0
    checked = 0
    points = [_random_base_params(rng) for _ in range(200)]
    points += [_random_naive_params(rng) for _ in range(100)]
    for params in points:
        out = solve_pooling(params)
        if out.kind != "pooling":
            continue
        checked += 1
        price, _ = grid_argmax(params, Quality.G)
        if price != out.price:
            mismatches += 1
    return mismatches == 0, (
        f"{checked} pooling points incl. naive-market gamma/mu0, "
        f"{mismatches} price mismatches"
    )


def _check_piecewise_identity(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(2000):
        params = _random_base_params(rng)
        schedule = build_wtp_schedule(params)
        for quality in (Quality.G, Quality.B):
            prices = rng.uniform(0.0, 1.0, size=5)
            enumerated = demand_by_enumeration(params, quality, prices)
            for p, demand in zip(prices.tolist(), enumerated.tolist()):
                profit = p * expected_demand(schedule, p, quality)
                worst = max(worst, abs(profit - p * demand))
    return worst <= 1e-12, f"max |piecewise - p*enumerated demand| = {worst:.3g}"


def _bisected_level_boundary(lam: float, v_B: float, max_level: int) -> float:
    """Where the ladder's argmax level leaves 1..max_level, by bisection on h.

    The argmax at h = 0.5 is level 1; 1.0 when it is still at or below
    max_level at h = 1.  Checking h = 1 first keeps the bracket's ends at
    -1 and +1, so the step passes bisect_threshold's monotone check even
    where the argmax leaves 1..max_level and comes back before h = 1.
    """

    def step(h: float) -> float:
        return 1.0 if _argmax_level(h, lam, v_B) > max_level else -1.0

    if step(1.0) < 0.0:
        return 1.0
    return bisect_threshold(step, (0.5, 1.0))


def _bisected_three_way_tie(
    v_B: float, low: int, high: int, other: int, bracket: tuple[float, float]
) -> Optional[float]:
    """lambda where level `other` meets the low/high tie, by nested bisection.

    The inner bisection finds the low/high tie in h at each lambda, the
    outer one where the level-`other` profit crosses it there; both read
    only the ladder.  The low/high tie lies inside (0.5, 1) over the bracket
    for every v_B verify draws (at most 0.95).
    """

    def excess(lam: float) -> float:
        h = bisect_threshold(
            lambda x: _level_profit_G(x, lam, v_B, low) - _level_profit_G(x, lam, v_B, high),
            (0.5, 1.0),
        )
        return _level_profit_G(h, lam, v_B, low) - _level_profit_G(h, lam, v_B, other)

    return bisect_threshold(excess, bracket)


def _bisection_gaps(params: ModelParams) -> list[float]:
    """|thresholds() - bisection on the ladder| for the fields that have a
    bisection route independent of the profit polynomials."""
    ts = thresholds(params)
    lam, v = params.lam, params.v_B
    gaps = [
        abs(ts.h_hat1 - _bisected_level_boundary(lam, v, 1)),
        abs(ts.h_star - _bisected_level_boundary(lam, v, 2)),
    ]
    if ts.h_hat3 is not None:
        gaps.append(abs(ts.h_hat3 - _bisected_level_boundary(lam, v, 3)))
    lambda_hat2 = bisect_threshold(
        lambda x: _level_profit_G(1.0, x, v, 3) - _level_profit_G(1.0, x, v, 4), (0.0, 1.0)
    )
    # The three-way ties on thresholds()' brackets: lambda_hat1 where levels
    # 2, 3, 4 meet below lambda_hat2, lambda_hat3 where levels 1, 2, 3 meet.
    eps = 1e-6
    lambda_hat1 = None
    if lambda_hat2 is not None and eps < lambda_hat2 - eps:
        lambda_hat1 = _bisected_three_way_tie(v, 3, 4, 2, (eps, lambda_hat2 - eps))
    lambda_hat3 = _bisected_three_way_tie(v, 1, 2, 3, (eps, 1.0 - eps))
    # h_underline and h_overline: where the all-sophisticated market's
    # level-3 profit meets the fully naive market's level-2 and level-4 ones.
    h_underline = bisect_threshold(
        lambda h: _level_profit_G(h, 0.0, v, 2) - _level_profit_G(h, 1.0, v, 3), (0.5, 1.0)
    )
    h_overline = bisect_threshold(
        lambda h: _level_profit_G(h, 1.0, v, 3) - _level_profit_G(h, 0.0, v, 4), (0.5, 1.0)
    )
    for got, want in (
        (ts.lambda_hat1, lambda_hat1),
        (ts.lambda_hat2, lambda_hat2),
        (ts.lambda_hat3, lambda_hat3),
        (ts.h_underline, h_underline),
        (ts.h_overline, h_overline),
    ):
        if (got is None) != (want is None):
            gaps.append(math.inf)
        elif got is not None:
            gaps.append(abs(got - want))
    return gaps


def _check_threshold_certificates(rng: np.random.Generator) -> tuple[bool, str]:
    params = ModelParams(h=0.7, lam=0.3, v_B=0.1)
    ts = thresholds(params)
    failures = []

    def tie_gap(value: Optional[float], lam: float, low: int, high: int, name: str):
        if value is None:
            return
        gap = abs(
            _level_profit_G(value, lam, params.v_B, low)
            - _level_profit_G(value, lam, params.v_B, high)
        )
        if gap > 1e-12:
            failures.append(f"{name}: residual {gap:.3g}")

    # Region boundaries at this lambda tie adjacent optimal levels.
    tie_gap(ts.h_hat1, params.lam, 1, 2, "h_hat1")
    tie_gap(ts.h_hat2, params.lam, 2, 3, "h_hat2")
    tie_gap(ts.h_hat3, params.lam, 3, 4, "h_hat3")
    star_soph = thresholds(ModelParams(h=0.7, lam=1.0, v_B=params.v_B)).h_star
    star_naive = thresholds(ModelParams(h=0.7, lam=0.0, v_B=params.v_B)).h_star
    order = [0.5, star_soph, ts.h_underline, star_naive, ts.h_overline, 1.0]
    if any(v is None for v in order) or any(
        a > b + 1e-12 for a, b in zip(order, order[1:])
    ):
        failures.append(f"threshold ordering violated: {order}")
    # The closed forms against bisection on the ladder at seeded points.
    worst = max(
        max(_bisection_gaps(_random_base_params(rng))) for _ in range(THRESHOLD_POINTS)
    )
    gap = f"max |closed form - bisection| = {worst:.3g} over {THRESHOLD_POINTS} seeded points"
    if not worst <= 1e-9:
        failures.append(gap)
    if failures:
        return False, "; ".join(failures)
    return True, f"{gap}; tie residuals <= 1e-12 and ordering holds at v_B=0.1"


def _check_monte_carlo(rng: np.random.Generator, draws: int, seed: int) -> tuple[bool, str]:
    worst_sigma, all_or_none = 0.0, 0
    for k in range(6):
        params = _random_base_params(rng)
        quality = Quality.G if k % 2 == 0 else Quality.B
        # A price between the lowest and the highest cell WTP leaves some
        # consumers out and lets some buy, so the run has a sample SE.
        wtps = [wtp for _, wtp in consumer_cells(params, quality)]
        price = float(rng.uniform(min(wtps), max(wtps)))
        report = simulate_market(params, quality, price, draws=draws, seed=seed + k)
        analytic = float(demand_by_enumeration(params, quality, price))
        if report.se_demand == 0.0:
            # Every draw bought or none did, so there is no sample SE.  Fail
            # only if that outcome is less likely under the analytic demand
            # than the z-score's two-sided 4-sigma tail.
            bought = report.est_demand == 1.0
            chance = (analytic if bought else 1.0 - analytic) ** draws
            if chance < MC_TAIL:
                return False, (
                    f"all {draws} draws {'bought' if bought else 'declined'} at analytic "
                    f"demand {analytic:.3g} (probability {chance:.3g})"
                )
            all_or_none += 1
            continue
        gap = abs(report.est_demand - analytic)
        worst_sigma = max(worst_sigma, gap / report.se_demand)
    with_se = 6 - all_or_none
    detail = (
        f"max |error|/SE = {worst_sigma:.2f} over {with_se} run{'s' * (with_se != 1)}"
        if with_se else "no run has a sample SE"
    )
    if all_or_none:
        detail += (
            f"; {all_or_none} all-or-none run{'s' * (all_or_none != 1)}, "
            "none less likely than the 4-sigma tail"
        )
    return worst_sigma <= 4.0, detail


def _run_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    draws = args.draws if args.draws is not None else 200000
    if not 1 <= draws <= MAX_VERIFY_DRAWS:
        raise UsageError(f"--draws must lie in [1, {MAX_VERIFY_DRAWS}], got {draws}")
    if not 0 <= seed <= MAX_VERIFY_SEED:
        raise UsageError(f"--seed must lie in [0, 2**128 - 6], got {seed}")
    checks = [
        ("oracle-vs-solver price agreement", _check_oracle_agreement),
        ("piecewise profit identity", _check_piecewise_identity),
        ("threshold certificates", _check_threshold_certificates),
        ("Monte-Carlo demand", lambda rng: _check_monte_carlo(rng, draws, seed)),
    ]
    all_ok = True
    # Check k draws from its own stream, so no check moves another's points.
    for k, (name, check) in enumerate(checks):
        ok, detail = check(np.random.default_rng([seed, k]))
        all_ok = all_ok and ok
        with _writing(None):
            print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    with _writing(None):
        print("verification " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splab",
        description="equilibrium solver and sweep tool for the signal-pricing market",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "equilibrium at one parameter point"),
        ("sweep", "equilibria over a parameter grid"),
        ("regions", "region classification map over a grid"),
        ("compare", "naive vs sophisticated profit curves over h"),
        ("thresholds", "threshold dump at one parameter point"),
        ("verify", "run the oracle verification suite"),
    ):
        if name == "verify":
            # No prefix matching, so --h is refused rather than read as --help.
            p = sub.add_parser(name, help=helptext, allow_abbrev=False)
            p.add_argument(
                "--seed", type=int, help="seed for the verification suite, 0 to 2**128 - 6"
            )
            p.add_argument(
                "--draws", type=int, help="Monte-Carlo draws per run, 1 to 10**8"
            )
            continue
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON file with parameter/output keys")
        p.add_argument("--h", dest="h", help="precision: scalar or min:max:steps")
        p.add_argument("--lambda", dest="lam", help="sophisticated share: scalar or range")
        p.add_argument("--vb", dest="vb", help="bad-quality value: scalar or range")
        p.add_argument("--gamma", dest="gamma", help="high-precision share: scalar or range")
        p.add_argument("--mu0", dest="mu0", help="prior Pr(G): scalar or range")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument(
            "--stats", action="store_true",
            help="print points, label tally and stage seconds to stderr as one JSON line",
        )
    return parser


def _print_stats(args, points: int, counts: Counter,
                 times: tuple[float, float, float, float, float]) -> None:
    """The --stats line.  `counts` holds the grid chunks' label tallies."""
    started, parsed, solved, written, waited = times
    stats = {
        "command": args.command,
        "points": points,
        "kinds": dict(sorted(counts.items())),
        "parse_s": round(parsed - started, 6),
        "solve_s": round(solved - parsed + waited, 6),
        "write_s": round(written - solved - waited, 6),
    }
    print(json.dumps(stats), file=sys.stderr)


def _run_command(args, started: float) -> int:
    config = _load_config(args.config)
    if args.format is None:
        args.format = config.get("format")
    if args.out is None:
        args.out = config.get("out")
    if args.out == "":
        raise UsageError("--out must name a file, got an empty name")
    axes = _resolve_axes(args, config)
    parsed = time.perf_counter()
    counts: Counter = Counter()
    if args.command == "solve":
        if any(len(values) > 1 for values in axes.values()):
            raise UsageError("solve takes scalar parameters; use sweep for grids")
        rows, columns = _solve_rows(axes, counts), SOLVE_COLUMNS
    elif args.command == "sweep":
        rows, columns = _solve_rows(axes, counts), SOLVE_COLUMNS
    elif args.command == "regions":
        rows, columns = _region_rows(axes, counts), REGION_COLUMNS
    elif args.command == "compare":
        # The default lambda is indistinguishable from an explicit one in
        # `axes`, so the flag and the config key are checked here.
        if args.lam is not None or config.get("lambda") is not None:
            raise UsageError(
                "compare does not take --lambda; it compares lambda=0 with lambda=1"
            )
        rows, columns = _compare_rows(axes), COMPARE_COLUMNS
    else:  # thresholds
        rows, columns = _threshold_rows(axes), THRESHOLD_COLUMNS
    solved = time.perf_counter()
    # A grid is solved as it is written: the writer returns the seconds it
    # waited for rows, which count as solving.
    waited = _write_rows(rows, columns, args)
    if args.stats:
        times = (started, parsed, solved, time.perf_counter(), waited)
        _print_stats(args, len(rows), counts, times)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            code = _run_verify(args)
        else:
            code = _run_command(args, started)
        with _writing(None):
            sys.stdout.flush()
        return code
    except (UsageError, ParameterError, UnsupportedVariantError) as exc:
        print(f"splab: error: {exc}", file=sys.stderr)
        return 2
    except StdoutError as exc:
        # The reader closed stdout early (say, `| head`; no message needed)
        # or the device is full.  Point stdout at the null device so the
        # interpreter's last flush of the unwritten buffer cannot raise
        # again on the way out.
        with contextlib.suppress(OSError, ValueError):
            stdout, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, stdout)
            os.close(null)
        if not isinstance(exc.__cause__, BrokenPipeError):
            print(f"splab: error: cannot write stdout: {exc.__cause__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
