"""Core-speed probe: how fast the core ran while a pass was measured.

The measuring box shares its cores with other tenants, and the speed a
core gives one process changes by up to ±25% from one second to the
next (the slowdown shows as slower execution, not as steal or waiting).
The probe times a small fixed chunk of work, a 32x32 FFT round trip,
in short bursts and every ``PERIOD_S`` from a ``SIGALRM`` timer while
the workload runs.  The mean chunk time over ``REF_CHUNK_S`` is the
pass's slowdown; a time divided by it is in reference-core seconds, the
time the same work takes on a core that runs the chunk in
``REF_CHUNK_S``.  Of the chunks tried (a pure-Python loop, small-array
ufunc calls, 96x96 stencils, this FFT) the FFT tracked the slowdown of
all three workloads best: pass times moved 0.92-1.14 times as much as
its time in log scale, at correlation 0.96-0.98.  The chunk does not
touch the lab, so a change to the lab moves the scaled time exactly as
it moves the raw time, at the same core speed.

Importing this module imports numpy, so a worker imports it only after
measuring set-up.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_CHUNK_S = 1.7e-4     # chunk time of the reference core
PERIOD_S = 0.025         # timer period while a workload runs (~1% overhead)
BURST = 75               # chunks per burst (~15 ms)

_GRID = np.random.default_rng(0).random((32, 32))


def _chunk():
    for _ in range(2):
        np.fft.ifft2(np.fft.fft2(_GRID))


class SpeedProbe:
    """Chunk timings of one interval of one process."""

    def __init__(self):
        self.total_s = 0.0       # time in timed chunks
        self.n = 0               # timed chunks
        self.inline_s = 0.0      # time the timer's chunks took from the workload

    def _sample(self):
        t = time.perf_counter()
        _chunk()
        d = time.perf_counter() - t
        self.total_s += d
        self.n += 1
        return d

    def _on_timer(self, *_signal_args):
        self.inline_s += self._sample()

    def burst(self):
        for _ in range(BURST):
            self._sample()

    def start(self):
        """A burst, then a chunk every ``PERIOD_S`` until ``stop``."""
        self.burst()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """Mean chunk time over the reference core's: above 1 is slower."""
        return self.total_s / self.n / REF_CHUNK_S
