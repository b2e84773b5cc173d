"""Rescaling wall times to a fixed reference speed of the host.

On a shared host the same CPU-bound work runs up to half again as slowly
for tens of seconds at a time, when neighbours load the machine.  A job's
wall time then says as much about the neighbours as about the program.
So each timed stretch of work is bracketed by probes of fixed kernels that
belong to the benchmark, not to the program.  They do the kinds of work the
program does: NumPy calls on large arrays and SciPy scalar minimisations.
Each takes 2-6 ms depending on the load of the host, and a probe is
the sum of each kernel's mean time over ``REPEATS`` calls.  A stretch's wall
time is multiplied by ``REFERENCE_S`` over the mean probe on its two
sides: the result is the time the work would have taken with the kernels
at their reference times.

A change to the program cannot change the kernels, so it moves the
rescaled times as much as it moves the work itself.  ``REFERENCE_S`` is a
typical probe on a 2-vCPU Xeon VM (2.0 GHz), between the 6.5 ms of a quiet
host and the 10.5 ms of a loaded one, so rescaled seconds are close to wall
seconds on that host.  Measured there over 15 s windows of repeated
jobs, the rescaled times of each workload spread 2-4% between windows
(interquartile range over median), where the wall times spread 10-26%.
Adding a pure-Python loop or NumPy calls on small arrays to the mix
tracked no better.
"""

from __future__ import annotations

import time
from math import log

import numpy as np
from scipy.optimize import minimize_scalar

REFERENCE_S = 0.0085
REPEATS = 5

_LARGE = np.linspace(0.0, 1.0, 20000)


def _large_arrays() -> float:
    return sum(float(np.sum(np.exp(_LARGE * 0.5) * np.sin(_LARGE)))
               for _ in range(16))


def _minimise() -> float:
    return sum(minimize_scalar(lambda t, c=0.3 * j: (t - c) ** 2 + log(1 + t * t),
                               bounds=(-5.0, 5.0), method="bounded").x
               for j in range(30))


KERNELS = (_large_arrays, _minimise)


def probe() -> float:
    """Seconds the kernels take now: the sum of their mean times."""
    t0 = time.perf_counter()
    for kernel in KERNELS:
        for _ in range(REPEATS):
            kernel()
    return (time.perf_counter() - t0) / REPEATS


class Pace:
    """Rescales consecutive timed stretches by the probes around each.

    The probe after one stretch is the probe before the next, so each
    stretch costs one probe."""

    def __init__(self):
        self.before = probe()

    def rescale(self, wall: float) -> float:
        """``wall``, timed since the last probe, at the reference speed."""
        after = probe()
        scaled = wall * REFERENCE_S * 2.0 / (self.before + after)
        self.before = after
        return scaled
