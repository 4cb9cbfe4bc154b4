"""Op times at a fixed reference CPU speed.

On a two-vCPU virtual machine of a shared host the CPU speed changes by
up to 1.5x within a minute, with wall time equal to CPU time (so it is
the core that slows, not the scheduler).  A wall time then says
as much about the neighbours as about the program.  To take that out, a
fixed calibration (plain numpy and Python, no program code) is timed
before and after each measured call and, through SIGALRM, every
``INTERVAL_S`` during it.  The call's time at reference speed is

    (wall - calibration time) * mean(CAL_REF_S / calibration sample)

so a call that runs while the core is 1.3x slower than usual reads the
same as one that runs at the usual speed, while a program that does 10%
more work reads 10% slower.  ``CAL_REF_S`` is a constant that only sets
the scale, chosen so that times at reference speed come out near the
typical wall times on that machine; it is the same for every commit
measured.
"""

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
CAL_REF_S = 5.6e-4

_rng = np.random.default_rng(0)
_STEP = np.exp(1j * _rng.standard_normal(64)) * 0.9
_DRIVE = _rng.standard_normal(64) + 0j
_WAVE = np.exp(1j * _rng.standard_normal(4096))


def _calibration():
    # The three kinds of work the program does: many small numpy ops
    # (recurrence, training), ops on arrays of a few thousand points
    # (FFT, kernels) and plain Python.
    x = np.zeros(64, dtype=np.complex128)
    for _ in range(60):
        x = _STEP * x + _DRIVE
    w = _WAVE
    for _ in range(3):
        w = np.exp(w * 0.5) * _WAVE
    s = 0
    for i in range(2000):
        s += i * i
    return x, w, s


class SpeedProbe:
    """Times calls and scales them to the reference speed."""

    def __init__(self):
        self._samples = []
        self._spent = 0.0
        self._sample()      # first-call costs out of the way

    def _sample(self, *_):
        start = perf_counter()
        _calibration()
        elapsed = perf_counter() - start
        self._samples.append(elapsed)
        self._spent += elapsed

    @contextmanager
    def measure(self, into):
        """Time the block; append (wall_s, ref_s) to ``into`` when it ends.

        wall_s is the block's wall time, calibration included; ref_s is its
        time at reference speed, calibration excluded.  Nothing is appended
        if the block raises.
        """
        self._samples = []
        self._sample()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = perf_counter() - start
            inside = self._spent
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        speed = statistics.fmean(CAL_REF_S / s for s in self._samples)
        into.append((wall, (wall - inside) * speed))
