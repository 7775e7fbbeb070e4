"""The traced benchmark's hooks still find every name they wrap.

`bench/layers.py` wraps module-level names of splab (the CLI row builders,
the candidate argmax, the extension aliases, the ladder build, ...).  A
refactor that deletes or renames one of them, or that stops calling
`cli.classify_equilibrium` once per grid point (the traced run tallies the
region kinds there), or a ModelParams that skips `__post_init__` (the traced
run counts builds there), would otherwise fail only in traced benchmark runs.
Likewise a `_structure_constants` that is no longer the cached function
would zero the traced `threshold-table` cache counters silently, a
bisection that stops going through the `bisect_threshold` module global
would zero the traced bisection counters, and a `grid_argmax` that stops
calling `_grid_prices` through the module global would zero the traced
`oracle-audit` candidate count.  `thresholds()` itself no longer bisects.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path

import splab.cli as cli
import splab.equilibrium as equilibrium
import splab.oracle as oracle
from splab import ModelParams, Quality
from test_cli_golden import CASES, GOLDEN_DIR

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    originals = (cli.classify_equilibrium, equilibrium.best_pooling_candidate)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cli.classify_equilibrium is not originals[0]
    finally:
        tracer.uninstall()
    assert (cli.classify_equilibrium, equilibrium.best_pooling_candidate) == originals


def test_trace_tallies_every_grid_point(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    golden = GOLDEN_DIR / "regions_baseline.csv"
    with open(golden, encoding="utf-8", newline="") as fh:
        labels = [row["classification"] for row in csv.DictReader(fh)]
    out = tmp_path / "regions.csv"
    tracer = Tracer()
    layers.install(tracer)
    tracer.active = True
    try:
        code = cli.main([*CASES["regions_baseline"], "--out", str(out)])
    finally:
        tracer.active = False
        tracer.uninstall()
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()
    kinds = {
        name.removeprefix("equilibrium.kind."): count
        for name, count in tracer.counts.items()
        if name.startswith("equilibrium.kind.")
    }
    assert kinds == Counter(labels)
    assert tracer.counts["cli.rows"] == len(labels)
    # One ModelParams per grid point, each counted at its __post_init__.
    assert tracer.counts["model.params_built"] == len(labels)


def test_trace_counts_threshold_bisection(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    misses = equilibrium._structure_constants.cache_info().misses
    tracer = Tracer()
    layers.install(tracer)
    tracer.active = True
    try:
        # A v_B no other test uses, so the structure constants are cold.
        equilibrium.thresholds(ModelParams(h=0.7, lam=0.3, v_B=0.2718281828459045))
        cold = tracer.counts["oracle.bisect_evals"]
        # hstar_prior still bisects through the module global.
        equilibrium.hstar_prior(0.1, 0.4)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert cold == 0
    assert equilibrium._structure_constants.cache_info().misses == misses + 1
    assert tracer.counts["oracle.bisect_evals"] > 0


def test_trace_counts_grid_candidates(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    tracer.active = True
    try:
        oracle.grid_argmax(ModelParams(h=0.7, lam=1.0, v_B=0.1), Quality.G)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.counts["oracle.grid_prices"] > 0
