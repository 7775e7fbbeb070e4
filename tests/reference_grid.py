"""Reference grid rows: one scalar classify call per point, in product order.

These are the bodies `splab.cli._solve_rows` and `splab.cli._region_rows`
had before the grid was walked in chunks whose baseline candidates come from
one numpy pass, and whose columns reach the writer with each axis as its
value list and the chunk's indices.  Every point builds its ModelParams and
calls `classify_equilibrium(params)`, which takes the candidate argmax
itself, and its row is one tuple.  `compare_rows` is the body
`splab.cli._compare_rows` had before it walked its h axis as a (h, lambda)
grid: one `compare_markets` call, two scalar `solve_pooling` calls, per h.
They live in the tests only, where the chunked rows must equal them bit for
bit and fail with the same exception at the same point, and their bytes
through `reference_writer.py` must equal the chunks' through the column
writer.
"""

from __future__ import annotations

import itertools

from splab.cli import AXIS_ORDER
from splab.equilibrium import classify_equilibrium, compare_markets
from splab.model import ModelParams


def _points(axes: dict[str, list[float]]):
    for values in itertools.product(*(axes[a] for a in AXIS_ORDER)):
        yield values, ModelParams(*values)


def solve_rows(axes: dict[str, list[float]]) -> list[tuple]:
    rows = []
    for values, params in _points(axes):
        _, out = classify_equilibrium(params)
        rows.append((
            *values, out.kind, out.price, out.low_price, out.alpha,
            out.profit_G, out.profit_B, out.region, out.candidate_level,
        ))
    return rows


def region_rows(axes: dict[str, list[float]]) -> list[tuple]:
    rows = []
    for values, params in _points(axes):
        label, out = classify_equilibrium(params)
        rows.append((*values, label, out.price, out.profit_G, out.profit_B))
    return rows


def compare_rows(axes: dict[str, list[float]]) -> list[tuple]:
    """(h, profit_G naive, profit_G sophisticated, profit_B naive, profit_B
    sophisticated) per h at the scalar v_B; None where pooling fails."""
    v_B = axes["v_B"][0]
    rows = []
    for h in axes["h"]:
        naive = ModelParams(h=h, lam=0.0, v_B=v_B)
        soph = ModelParams(h=h, lam=1.0, v_B=v_B)
        report = compare_markets(naive, soph)
        naive_out, soph_out = report.naive, report.sophisticated
        rows.append(
            (h, naive_out.profit_G, soph_out.profit_G, naive_out.profit_B, soph_out.profit_B)
        )
    return rows
