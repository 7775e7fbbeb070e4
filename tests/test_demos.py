"""Every demo prints exactly the bytes recorded in tests/data/demos/.

The demos print rounded figures from every layer (beliefs, the ladder, the
region map, thresholds, the extensions and a Monte-Carlo replay), so a
refactor that changes what they print shows up here.  To re-record a golden
after a deliberate change, run the demo with PYTHONPATH=src and save its
stdout under tests/data/demos/<demo name>.txt.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120, check=True
    )
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
