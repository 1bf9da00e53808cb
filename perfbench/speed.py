"""Machine speed, measured next to the work it rescales.

On the shared virtual machine this benchmark was defined on, the speed of
identical work changes by a third within seconds and drifts by as much
over minutes, so wall times spread accordingly.  Every timed operation is
therefore followed by a calibration spin: fixed Python and numpy work, run
for half as long as the operation took.  The operation's wall time is
divided by the machine's slowdown around it, which is the mean spin time
before and after it over ``REFERENCE_SPIN_S``.  The result is in reference
seconds: seconds of a machine on which one spin takes ``REFERENCE_SPIN_S``.
The spin runs no program code, so a change to the program moves reference
time in proportion to wall time.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_SPIN_S = 0.002
SHARE = 0.5  # spin time per unit of work time
_MIN_SPIN_S = 0.02
_LOOP = 6000  # Python-level iterations per spin


class Clock:
    """Turns wall seconds into reference seconds; keeps every spin time.

    A spin runs a Python loop and the row-difference kernel of permatch's
    distance builds over an array shaped like the workload's feature matrix,
    so that it meets the same cache and memory pressure as the work.
    """

    def __init__(self, shape: tuple[int, int]):
        rows, cols = shape
        self._block = np.linspace(0.0, 1.0, rows * cols).reshape(rows, cols)
        # about as many array elements per spin as 32 rows of a 128 x 128 block
        self._rows = max(1, min(rows, (128 * 128 * 32) // (rows * cols)))
        self.spins: list[float] = []
        self._last = self._spin_for(_MIN_SPIN_S)

    def _spin(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(_LOOP):
            total += i * i
        block = self._block
        for k in range(self._rows):
            np.square(block - block[k]).sum(axis=1)
        return time.perf_counter() - start

    def _spin_for(self, seconds: float) -> float:
        times = [self._spin()]
        while sum(times) < seconds:
            times.append(self._spin())
        self.spins.extend(times)
        return sum(times) / len(times)

    def rescale(self, wall_s: float) -> float:
        """Reference seconds for work that just took ``wall_s``; spins after it."""
        before = self._last
        self._last = self._spin_for(max(_MIN_SPIN_S, SHARE * wall_s))
        return wall_s * REFERENCE_SPIN_S / (0.5 * (before + self._last))
