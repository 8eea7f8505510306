"""Makes the benchmark modules and the polydom sources importable, one BLAS thread."""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]
