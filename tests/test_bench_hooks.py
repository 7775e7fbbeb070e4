"""The traced benchmark's hooks still find every name they wrap.

`bench/layers.py` wraps module-level names of splab (the CLI row builders,
the candidate argmax, the extension aliases, the ladder build, ...).  A
refactor that deletes or renames one of them would otherwise fail only in
traced benchmark runs.
"""

from __future__ import annotations

from pathlib import Path

import splab.cli as cli
import splab.equilibrium as equilibrium

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
