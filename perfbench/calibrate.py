"""Host-speed calibration: rescale wall times to a reference host speed.

The shared 2-CPU hosts this benchmark runs on change speed by up to
~1.8x for seconds to minutes at a time (measured: the same elog-compare
op took 550-1031 ms within one minute, and CPU time tracked wall time
exactly, so the slowdown is the vCPU itself, not waiting). Raw wall
times then differ more between identical runs than any useful
regression bound.

A fixed calibration kernel — interpreter-bound dict/str work plus a
little NumPy, the system's own mix, and no code of the system — is
timed between ops. Each op's wall time is rescaled by
``KERNEL_REF_S / kernel time at that moment``: the time the op would
have taken on a host where the kernel takes ``KERNEL_REF_S``. On that
host, rescaled times equal wall times. The kernel never changes with
the system, so a change to the system moves rescaled times exactly as
it moves wall times at a fixed host speed.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Kernel time (s) that defines the reference host speed.
KERNEL_REF_S = 0.025


def kernel() -> int:
    table: dict[str, int] = {}
    total = 0
    for i in range(30000):
        key = "k%d" % (i % 500)
        table[key] = table.get(key, 0) + i
        total += len(key)
    values = np.arange(20000)
    for divisor in range(90, 110):
        total += int(np.unique(values % divisor).sum())
    return total


def sample() -> tuple[float, float]:
    """(monotonic time, kernel seconds): the faster of two timings, so
    a single preemption does not read as a slow host."""
    timings = []
    for _ in range(2):
        began = time.perf_counter()
        kernel()
        timings.append(time.perf_counter() - began)
    return time.monotonic(), min(timings)


def kernel_at(samples: list[tuple[float, float]], when: float) -> float:
    """Kernel seconds at ``when``, linear between the nearest samples."""
    times = [t for t, _ in samples]
    i = bisect.bisect_left(times, when)
    if i == 0:
        return samples[0][1]
    if i == len(samples):
        return samples[-1][1]
    (t0, k0), (t1, k1) = samples[i - 1], samples[i]
    return k0 + (k1 - k0) * (when - t0) / (t1 - t0)


def rescale(seconds: float, samples, when: float) -> float:
    return seconds * KERNEL_REF_S / kernel_at(samples, when)
