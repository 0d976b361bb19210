#!/usr/bin/env python3
"""Run one bruhatmc benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload mc-grid --seed 7 --seconds 50 --trace 0
    python3 bench/run.py --workload all --trace 0     # every workload in turn

Workloads: mc-grid, sheet-gauss, chainstat-rect, exact-oracles.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from the checkout's
``src/``; without it the benchmark exits with a nonzero code and prints no result.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread per process, so 2 workers x BLAS threads <= nproc (2).
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare() -> None:
    """Pin BLAS threads and make the checkout's src/ the only bruhatmc.

    Must run before numpy is imported.  Child interpreters (workers and the
    set-up timing) inherit both settings through the environment.
    """
    if not (SRC / "bruhatmc" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC}/bruhatmc; run from a full checkout")
    os.environ.update(BLAS_PIN)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import bruhatmc

    if Path(bruhatmc.__file__).resolve().parent != (SRC / "bruhatmc").resolve():
        sys.exit(f"bench: imported bruhatmc from {bruhatmc.__file__}, not from {SRC}")


if __name__ == "__main__":
    prepare()
    import harness

    sys.exit(harness.main())
