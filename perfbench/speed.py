"""Machine-speed normalisation of measured times.

On a shared host the speed of one virtual CPU drifts by 20-50 % within
seconds, in both directions, and longer runs do not average it out.  The
benchmark therefore times a fixed reference kernel (small-tuple sorting
and dict lookups in Python, plus numpy gathers, the mix the program
itself runs) on the same CPU as the work: right before and after every
op, and every ``INTERVAL_S`` seconds during it from a SIGALRM handler.
Each measured interval is scaled to the speed at which the kernel takes
``NOMINAL_S`` seconds:

    normalised = (interval - kernel samples inside it) * NOMINAL_S / kernel

where ``kernel`` is the mean kernel time sampled inside the interval, or
of the nearest samples before and after it.  The benchmark pins itself
to one CPU, and the subprocesses it starts inherit the pin, so the
kernel measures the CPU the work runs on.  While a subprocess runs,
sampling pauses (a sample would measure the time-slicing between the
two), and ``BRACKET_SAMPLES`` samples on each side of it stand in.  Each
sample runs the kernel twice and times the second run only: the first
run after an op finds the kernel's data evicted from the caches, and
would measure the op's memory footprint rather than the machine.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

#: Kernel time at nominal speed, about its median on a 2-vCPU x86-64 VM.
NOMINAL_S = 0.0025
INTERVAL_S = 0.2
#: Samples taken on each side of a subprocess.
BRACKET_SAMPLES = 2


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._table = rng.integers(0, 2048, size=(504, 504)).astype(np.int32)
        self._meet = rng.random((2048, 2048)) < 0.5
        self._rows = rng.integers(0, 504, size=(16, 8)).astype(np.int32)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []  # of the timed (second) kernel run
        self._busy = False

    def _kernel(self):
        seen = {}
        for i in range(600):
            key = tuple(sorted((i * 7919 + k * 104729) % 4096 for k in range(9)))
            seen[key] = seen.get(key, 0) + 1
        hits = 0
        for i in range(16):
            cells = self._table[np.ix_(self._rows[i], self._rows[(i + 1) % 16])].ravel()
            hits += int(self._meet[cells[:, None], cells[None, :]].sum())
        return hits

    def sample(self, *_):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self._kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.durations.append(t2 - t1)
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    @contextlib.contextmanager
    def paused(self):
        """Sample only before and after a subprocess, not while it runs.

        The subprocess shares the pinned CPU, so a sample taken while it
        runs would measure the time-slicing and not the machine.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(BRACKET_SAMPLES):
            self.sample()
        try:
            yield
        finally:
            for _ in range(BRACKET_SAMPLES):
                self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def normalize(self, t0: float, t1: float) -> float:
        """The interval [t0, t1], net of kernel samples, at nominal speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        net = (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        inside = self.durations[lo:hi] or [
            self.durations[i] for i in (lo - 1, hi) if 0 <= i < len(self.durations)]
        return net * NOMINAL_S / (sum(inside) / len(inside))

    def kernel_median_s(self) -> float:
        return sorted(self.durations)[len(self.durations) // 2]
