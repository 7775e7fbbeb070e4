"""Reference row writer: `csv.writer` over `fmt`, `json.dumps(indent=2)` over dicts.

This is the body `splab.cli._write_rows` had before it wrote JSON from a row
template with each distinct cell formatted once.  The CSV formats every
cell through `fmt`; the JSON builds one dict per row, each float rounded to
12 digits, and encodes the whole list in one `json.dumps(..., indent=2)`
call, which runs the pure-Python encoder.  It lives in the tests only, where
the streaming writer must equal it byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
from typing import Sequence


def fmt(value) -> str:
    """Fixed 12-significant-digit number formatting; None becomes ''."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%.12g" % value


def _json_value(value):
    """JSON cell: floats rounded to the same 12 digits the CSV prints."""
    if value is None or isinstance(value, (str, int)):
        return value
    return float(fmt(value))


def write_rows(rows: Sequence[tuple], columns: Sequence[str], args) -> None:
    with (open(args.out, "w", encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if (args.format or "csv") == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([fmt(value) for value in row] for row in rows)
        else:
            payload = [dict(zip(columns, map(_json_value, row))) for row in rows]
            fh.write(json.dumps(payload, indent=2) + "\n")
