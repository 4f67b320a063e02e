"""Machine-speed probe that runs beside a measurement.

On a virtual machine that shares its cores (a 2-vCPU Xeon guest, Python
3.11), the same fixed pure-Python loop took from 0.8x to 1.3x its usual
time from one ten-second stretch to the next, and every CPU-bound timing
moved with it.  So each run starts this script as a subprocess; every
``INTERVAL_S`` seconds it times :func:`unit` and appends
``<perf_counter> <seconds>`` to a file, until its stdin closes.  :class:`SpeedProbe` turns the samples of a stretch of the run
into a factor, ``REFERENCE_S / median sample``, and the run multiplies its
times by the factor of the stretch they were measured in: the times read as
on a machine where :func:`unit` takes ``REFERENCE_S``.  The raw times are
printed with every run as well.
"""

from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
import sys
import time

#: Seconds :func:`unit` takes at the speed times are reported at.
REFERENCE_S = 1.5e-3
INTERVAL_S = 0.05


def unit() -> int:
    """A fixed amount of interpreter work."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """The probe subprocess, and the factors its samples give."""

    def __init__(self, path: str):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path],
            stdin=subprocess.PIPE)
        self._samples = None
        self._near: dict = {}

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)

    def samples(self) -> list:
        if self._samples is None:
            self.stop()
            with open(self.path) as fp:
                self._samples = [tuple(map(float, line.split()))
                                 for line in fp if line.strip()]
        return self._samples

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median sample taken in ``[start, end]``
        (``perf_counter`` instants)."""
        samples = self.samples()
        lo = bisect.bisect_left(samples, (start,))
        hi = bisect.bisect_right(samples, (end, float("inf")))
        inside = [d for _, d in samples[lo:hi]]
        if len(inside) < 5:
            raise RuntimeError(
                f"speed probe took {len(inside)} samples in a "
                f"{end - start:.1f}s stretch")
        return REFERENCE_S / statistics.median(inside)

    def factor_at(self, instant: float) -> float:
        """The factor of the second around ``instant`` (to 0.1 s)."""
        key = round(instant, 1)
        if key not in self._near:
            self._near[key] = self.factor(key - 0.5, key + 0.5)
        return self._near[key]


def main() -> int:
    with open(sys.argv[1], "w") as out:
        while True:
            start = time.perf_counter()
            unit()
            out.write(f"{start} {time.perf_counter() - start}\n")
            out.flush()
            ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
            if ready and not sys.stdin.buffer.read1(4096):
                return 0


if __name__ == "__main__":
    sys.exit(main())
