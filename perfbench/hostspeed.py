"""Host-speed probes: two fixed kernels that run no ballsep code.

The benchmark shares a few cores of a busy host, whose speed changes by up
to a factor of two within seconds and stays changed for minutes; interpreted
code slows more than numpy's compiled loops.  Each timed region is scaled by
the probe of its kind taken next to it, so that a metric reads what it would
on the host at its nominal speed:

    scaled time = measured time * NOMINAL[kind] / probe time

The kernels depend on nothing a change to ballsep can touch, so a faster or
slower program still moves the scaled metrics in full.  ``NOMINAL`` holds
each kernel's time on the 2-core x86_64 host the baseline was measured on.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

_perf = time.perf_counter

# seconds per kernel on the baseline host when it ran at its fastest
NOMINAL = {"python": 0.004, "numpy": 0.005}


def _python_kernel() -> float:
    """Scalar float work in the interpreter, like a closed-form call."""
    acc = 0.0
    for k in range(1, 20_001):
        x = k * 5e-5
        acc += math.lgamma(1.0 + x) - math.log1p(x) / (x + 1.0)
    return acc


def _numpy_kernel() -> float:
    """Gaussian rows and their norms, like a block of sphere directions."""
    rows = np.random.Generator(np.random.PCG64(0)).standard_normal((1024, 200))
    return float(np.linalg.norm(rows, axis=1).sum())


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def probe() -> dict:
    """Seconds each kernel takes now."""
    times = {}
    for kind, kernel in _KERNELS.items():
        start = _perf()
        kernel()
        times[kind] = _perf() - start
    return times


def factor(probes, kind: str) -> float:
    """NOMINAL over the mean probe of one kind: multiply a time by it.  The
    mean, as the host flips between a fast and a slow state within a second
    and a timed region pays the average of the two."""
    return NOMINAL[kind] / statistics.fmean(p[kind] for p in probes)
