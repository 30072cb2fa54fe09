"""Calibration kernels: fixed work, timed after every round, that gives the
speed of the host at that moment.

The benchmark was built on a shared 2-vCPU VM.  There, other tenants slowed
whole stretches of a run by up to 1.9x, often for longer than a run.  CPU
time slowed with wall time, so this was contention, not preemption.  A
kernel that does the same kind of work as a workload slows by about the same
factor.  In 5-second windows of 40-60 s runs, dividing each round by the
kernel timed just after it cut the interquartile range over the median of
the windows' median round times from about 30% to 1-2% for the simulation
workloads, and from 6-10% to about 3% for analysis.

The kernels call nothing in bellodds, so a change to the program cannot move
them.  Each has a reference time, a round figure near its time on the quiet
host.  A normalized time is a measured time times reference / kernel time:
the time at the speed of a host on which the kernel takes its reference time.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np


def walk_kernel() -> int:
    """Work shaped like a replication: a Philox stream per walk, a block of
    draws, a step cumsum and a short loop of Python float arithmetic.  Returns
    its time in ns."""
    t0 = time.perf_counter_ns()
    for i in range(20):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=i, spawn_key=(i,))))
        np.cumsum(np.where(rng.random(256) < 0.3, 0.4, -0.1))
        s = 0.0
        for v in range(30):
            s += math.log1p(v * 0.01)
    return time.perf_counter_ns() - t0


def grid_kernel() -> int:
    """Work shaped like the minimax grid searches: elementwise maximum and
    argmin over 8 MB float arrays.  Returns its time in ns."""
    grid, out = _grid_arrays()
    t0 = time.perf_counter_ns()
    np.maximum(grid, grid[::-1], out=out).argmin()
    return time.perf_counter_ns() - t0


@functools.cache
def _grid_arrays() -> tuple[np.ndarray, np.ndarray]:
    """Allocated once, so the kernel adds a constant 16 MB to the resident
    set and no transient peak that could hide the program's own."""
    grid = np.random.default_rng(0).random(1_000_000)
    return grid, np.empty_like(grid)


#: kernel name -> (kernel, its reference time in ns)
KERNELS = {"walk": (walk_kernel, 500_000), "grid": (grid_kernel, 2_500_000)}
