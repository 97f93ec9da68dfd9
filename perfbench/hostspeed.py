"""Host speed: a fixed calibration kernel timed all through every run.

The benchmark runs on a few cores of a shared host, and those cores run
other tenants' work too.  Their speed moves by up to 2x within a minute
with no change to the code, and CPU time moves with wall time, so it is
not time stolen by the hypervisor: the work itself runs slower.  The
time metrics that measure the program's own computation (a workload's
``HOST_SCALED``) are therefore reported at a reference host speed, by
timing a fixed kernel between the program's timed operations and
scaling the measurement by the kernel's median time against
:data:`REFERENCE_MS`.

The kernel is the benchmark's own numpy code and never calls the
program, so a change to the program cannot move it: multiply-shift
hashing of 4096 Zipf keys into 12 count-sketch tables of 5 x 2048
counters, scatter-add and a median gather.  It touches about as much
memory as the program's ingest path and makes the same kind of numpy
calls; in a three-minute probe on the 2-CPU host where the benchmark was
written, the time of one ingest chunk moved 1.74x while its ratio to the
kernel's time stayed within +-5%.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from common import median

#: The kernel's time on the reference host, in milliseconds (a quiet
#: 2-CPU Xeon host takes about 4 ms).
REFERENCE_MS = 4.0

_MULTIPLIERS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                0xD6E8FEB86659FD93, 0xFF51AFD7ED558CCD)


class HostClock:
    """Times the calibration kernel; :meth:`speed` is the median speed of
    the samples taken so far relative to the reference host."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0x5EED)
        self._keys = (rng.zipf(1.1, 4096).astype(np.uint64)
                      * np.uint64(2654435761))[None, :]
        self._mult = np.array(_MULTIPLIERS, dtype=np.uint64)[:, None]
        self._rows = np.arange(len(_MULTIPLIERS))[:, None]
        self._tables = [np.zeros((len(_MULTIPLIERS), 2048), np.int64)
                        for _ in range(12)]
        self.samples: List[float] = []
        self._kernel()  # first touch of the tables, not a sample

    def _kernel(self) -> None:
        for table in self._tables:
            cells = ((self._keys * self._mult)
                     >> np.uint64(53)).astype(np.intp)
            for row, cols in zip(table, cells):
                np.add.at(row, cols, 1)
            np.median(table[self._rows, cells], axis=0)

    def sample(self, repeats: int = 1) -> None:
        """Time the kernel ``repeats`` times."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(1e3 * (time.perf_counter() - t0))

    def speed(self) -> float:
        return speed_of(self.samples)


def speed_of(samples_ms: List[float]) -> float:
    """Host speed of kernel samples: the reference time over their
    median (> 1: faster than the reference host)."""
    return REFERENCE_MS / median(samples_ms)
