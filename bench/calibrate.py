"""Reference kernels that measure how fast this machine is running right now.

The CPU speed a process gets on a shared machine drifts by tens of percent
over minutes (other tenants, frequency, cache pressure), which swamps the
differences a benchmark exists to show.  The run times one of these kernels
between passes, in the same process, and divides each pass's time by the
kernel's speed around it.  The kernels use only the standard library and
numpy, never splab, so a change to splab moves the normalised figures by
exactly as much as it moves the raw ones.

``python_kernel`` mimics the interpreter work of the solver and the CLI
(frozen dataclasses validated in ``__post_init__``, enum tests, small
tuples, a sorted candidate list, rows written as indented JSON and as CSV);
``numpy_kernel`` mimics the oracle's whole-array passes over a 100 001-point
grid.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Kernel time, in seconds, that the normalised figures are scaled to: a
#: normalised millisecond is a millisecond on a machine that runs the
#: kernel in exactly this long (about what this one takes when quiet).
NOMINAL_S = 0.03
#: Kernel repetitions per calibration; their median is the reading.
REPEATS = 3


class _Side(enum.Enum):
    LOW = "l"
    HIGH = "h"


class _Candidate(NamedTuple):
    price: float
    level: int
    value: float


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            object.__setattr__(self, name, float(value))
            if not math.isfinite(value):
                raise ValueError(name)


def _python_once() -> float:
    total = 0.0
    rows = []
    for k in range(700):
        point = _Point(0.5 + k / 1400.0, (k % 101) / 100.0, 0.22)
        side = _Side.HIGH if k % 2 else _Side.LOW
        levels = tuple(point.x * j + (1.0 - point.x) * point.z for j in (0.1, 0.3, 0.5, 0.7, 0.9))
        masses = (point.y / 2.0, (1.0 - point.y) / 4.0, point.y / 2.0, 0.25, point.x / 2.0)
        candidates = sorted(
            (_Candidate(price, j, price * sum(masses[j:])) for j, price in enumerate(levels)),
            key=lambda c: (c.price, c.level),
        )
        best = max(candidates, key=lambda c: c.value)
        if side is _Side.HIGH:
            total += best.value
        rows.append({"x": point.x, "y": point.y, "kind": side.value, "price": best.price,
                     "level": best.level, "none": None})
    # Output like the CLI's: indented JSON (the pure-Python encoder) and CSV.
    text = json.dumps(rows, indent=2)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        [format(value, ".12g") if isinstance(value, float) else value for value in row.values()]
        for row in rows
    )
    return total + len(text) + len(buffer.getvalue())


_GRID = np.linspace(0.0, 1.0, 100_001)


def _numpy_once() -> float:
    prices = np.union1d(_GRID, np.array([0.13, 0.42, 0.5, 0.77]))
    total = np.zeros_like(prices)
    for prob, cut in zip(np.linspace(0.05, 0.2, 8), np.linspace(0.1, 0.9, 8)):
        total += prob * (prices <= cut)
    return float(prices[int(np.argmax(prices * total))])


def _time(once, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        once()
    return (time.perf_counter() - start) / reps


def python_kernel() -> float:
    """Seconds one python kernel takes right now (median of REPEATS)."""
    return statistics.median(_time(_python_once, 1) for _ in range(REPEATS))


def numpy_kernel() -> float:
    """Seconds six numpy kernel passes take right now (median of REPEATS)."""
    return 6 * statistics.median(_time(_numpy_once, 6) for _ in range(REPEATS))


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two kernel readings to the
    nominal speed."""
    return 2.0 * NOMINAL_S / (before + after)
