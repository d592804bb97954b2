"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same operation's wall time drifts by
up to 2x over tens of seconds, and such phases can cover a whole run, so
medians within a run do not make runs agree.  A fixed kernel owned by the
benchmark (small-array numpy arithmetic driven from a Python loop, like the
program's own work) is timed between consecutive operations, on the same CPU
(run.py pins the benchmark and everything it starts to one CPU).  Each
operation's wall time is scaled by NOMINAL_S over the kernel's mean time
just before and just after it, and during it for operations that run in
the benchmark's own process: "calibrated seconds", the wall time the
operation takes when the kernel takes NOMINAL_S.  The program cannot change
the kernel, so a slower program still reads slower.
"""
from __future__ import annotations

import gc
import math
import os
import signal
import time

import numpy as np

# the kernel's wall time on an uncontended 2-vCPU Intel Xeon KVM guest
# (Python 3.11, numpy 2.4); it only sets the scale
NOMINAL_S = 0.0035


def _kernel():
    x = np.linspace(-3.0, 3.0, 64)
    acc = 0.0
    for i in range(400):
        z = (1.0 - 1j * x * (i % 7)) / (2.0 + 1j * x)
        acc += float(np.sum(np.abs(z) ** 2)) + math.sqrt(i)
    return acc


def _timed_kernel():
    # the collector stays off so that the kernel never pays for the
    # program's garbage
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample():
    """Kernel wall time now: the faster of two runs."""
    return min(_timed_kernel(), _timed_kernel())


class Sampler:
    """Times the kernel every PERIOD_S while an in-process operation runs.

    A SIGALRM handler runs between the operation's bytecodes; ``spent``
    is the wall time the handler took, which the caller subtracts from the
    operation's time.  Operations in child processes are not sampled this
    way: the kernel would share their pinned CPU.
    """

    PERIOD_S = 0.5

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        # sample() keeps the warm one of two runs, so the program's cache
        # footprint does not leak into the machine's speed
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self):
        """Samples and spent time since the last take."""
        samples, spent = self.samples, self.spent
        self.samples, self.spent = [], 0.0
        return samples, spent


def pin_to_one_cpu():
    """Run this process and its future children on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
