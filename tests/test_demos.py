"""Every demo prints exactly the bytes recorded in tests/data/demos/.

The demos print rounded figures from every layer (beliefs, the ladder, the
region map, thresholds, the extensions and a Monte-Carlo replay), so a
refactor that changes what they print shows up here.  Each runs with
``-W error`` and must write nothing to stderr.  To re-record a golden
after a deliberate change, run the demo with PYTHONPATH=src and save its
stdout under tests/data/demos/<demo name>.txt.

The README's library quickstart runs here too, and must print what its
comments say.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    """Run `python -W error *args` with src/ on the path; stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True, env=env, timeout=120, check=True,
    )
    return proc.stdout, proc.stderr


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo):
    stdout, stderr = run_python(str(demo))
    assert stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
    assert stderr == b""


def test_readme_quickstart_prints_what_it_says():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Quickstart \(library\)\n\n```python\n(.*?)```", readme, re.S).group(1)
    stdout, stderr = run_python("-c", code)
    assert stderr == b""
    # The first print's comment is the line it prints.
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    assert first_print.split("# ")[-1] == "pooling R3 0.55 0.4675"
    assert stdout.decode().splitlines()[0] == "pooling R3 0.55 0.4675"
