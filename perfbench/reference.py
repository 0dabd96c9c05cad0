"""Reference kernel: how fast the machine is right now.

The benchmark's machine is shared.  Work that does not change runs at
anything from 1x to 2x its best time, in phases that last from seconds to
minutes, while the process's CPU time stays equal to its wall time.  For
the continuation workload, pure-Python scalar work, that makes raw times of
one commit differ between runs by 11-27% (interquartile range over ten
runs).  So each continuation pass times a fixed kernel of the same kind of
work right before and right after its calls, in the same process, and
run.py divides the pass's time by the kernel's mean slowdown; that brought
the spread to about 5%.  The kernel uses NumPy and plain Python only, never
shrimplab, so a change to the program does not move it.

The other workloads are reported in plain seconds.  Kernels of their kinds
of work (element-wise NumPy over 2 MB arrays for window512, a mix for
rescale_mix) did not follow their slowdowns: the spread of window512 stayed
about the same and that of rescale_mix grew.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# Workloads whose pass times are scaled by the kernel's slowdown.
SCALED = ("continuation",)

# Kernel seconds on the baseline machine at about its usual speed.
REFERENCE_S = 0.10


def _jet(y, a, b):
    t = a - y * y
    return b - t * t, 4.0 * t * y, 4.0 * t - 8.0 * y * y


def kernel(n=1500):
    """Scalar Newton steps on a quartic with 2x2 NumPy solves."""
    total = 0.0
    for i in range(n):
        y = 0.3 + 1.0e-5 * i
        for _ in range(6):
            v, d1, d2 = _jet(y, 1.1, 0.4)
            step = np.linalg.solve(np.array([[d1 - 1.0, -1.0], [d2, 0.5]]),
                                   np.array([v - y, d1 + 1.0]))
            y -= 1.0e-3 * float(step[0])
        total += y
    return total


def slowdown():
    """Time the kernel once; return its time over REFERENCE_S."""
    t0 = perf_counter()
    kernel()
    return (perf_counter() - t0) / REFERENCE_S
