"""Paths and process settings shared by the benchmark's entry points."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
OUT = ROOT / ".perfbench_out"


def use_checkout() -> None:
    """Pin BLAS to one thread and import `seedwing` from the checkout's src.

    Call before numpy is imported: the thread count is read at load time.
    Exits with code 1 when the checkout holds no program source.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "seedwing" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
