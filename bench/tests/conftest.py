"""Make the benchmark's modules and the checkout's splab importable."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
