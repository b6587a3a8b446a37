"""One set-up sample: import nullseq and sympy, then build a workload's jobs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken, then the median time of ``run.SpeedProbe``'s
kernel run just after, which says how slow the host was.  ``run.py``
starts several of these fresh processes and reports the median scaled
set-up time as ``setup_s``.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

import sympy  # noqa: E402,F401
import nullseq.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
_ELAPSED = time.perf_counter() - _START

import statistics  # noqa: E402

import run  # noqa: E402

_probe = run.SpeedProbe()
print(_ELAPSED, statistics.median(_probe.kernel() for _ in range(5)))
