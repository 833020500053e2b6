"""A clock that runs at the speed of a fixed reference machine.

The host this benchmark was written on is a shared 2-vCPU VM whose speed for
single-threaded Python swings by up to half within seconds, in stretches of
one to twenty seconds, with no steal time to show for it; a 20 s run's mean
speed moves by 20 % between runs.  Measured in raw seconds, no metric would
hold still within its bound.  So every ``TICK_S`` an interval timer
interrupts the run and times ``kernel``, a short pure-Python loop that
allocates nothing the garbage collector tracks.  Work time between ticks is
scaled by ``REFERENCE_S`` over the median of the last few kernel times: a
duration read from ``Clock.now`` is the time the work would take on a host
that runs the kernel in ``REFERENCE_S``.  Time spent in the kernel is left
out.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.05
KERNEL_STEPS = 8000
REFERENCE_S = 0.0006  # about the kernel's time in a run on a quiet host of the reference VM
WINDOW = 5

_TABLE = {i: (i * 37 + 11) % 257 for i in range(257)}


def kernel(steps: int = KERNEL_STEPS) -> int:
    table = _TABLE
    s = 0
    for i in range(steps):
        s = table[(s + i) % 257] ^ (i & 7)
    return s


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Reference-speed time while running; use as a context manager."""

    def __init__(self) -> None:
        self.samples = [kernel_seconds() for _ in range(WINDOW)]
        self.factor = REFERENCE_S / statistics.median(self.samples)
        self.base = 0.0
        self.anchor = time.perf_counter()
        self.ticks = 0
        self._previous = None

    def now(self) -> float:
        return self.base + (time.perf_counter() - self.anchor) * self.factor

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.base += (entered - self.anchor) * self.factor
        self.samples.append(kernel_seconds())
        del self.samples[:-WINDOW]
        self.factor = REFERENCE_S / statistics.median(self.samples)
        self.ticks += 1
        self.anchor = time.perf_counter()

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.anchor = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
