"""Puts the checkout's ``src/`` and the benchmark modules on the import path."""
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
