"""Time one workload's set-up in a fresh interpreter; run.py starts this.

    python3 perfbench/setup_probe.py WORKLOAD SEED NPROC

Prints the seconds spent importing ballsep plus building the workload's
instances.  Importing the benchmark's own modules (and mpmath) between the
two is not counted: a ballsep user does not pay for it.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

start = time.perf_counter()
import ballsep  # noqa: E402,F401

imported = time.perf_counter() - start

from perfbench.workloads import WORKLOADS  # noqa: E402

start = time.perf_counter()
WORKLOADS[sys.argv[1]](int(sys.argv[2]), int(sys.argv[3]))
print(imported + time.perf_counter() - start)
