"""Host-speed calibration: a fixed reference kernel timed while a batch runs.

The benchmark shares a few virtual CPUs of a host whose speed drifts by a
quarter or more over minutes, as neighbouring machines load it.  Medians within one
run cannot remove a drift that lasts longer than the run, so the end-to-end
times are scaled by the host's speed at the moment they were measured.

``SpeedProbe`` samples that speed while a batch runs: an interval timer
interrupts the batch every ``INTERVAL_S`` seconds and times ``reference()``,
a fixed mix of interpreter work, small numpy calls and one pass over a
4 MiB array, like the package's own mix.  The probe's own time is kept
out of the batch time (``work_clock``), and a batch's calibrated time is its
work time times ``NOMINAL_S`` over the mean sample taken during it, so it
reads as seconds on a host where ``reference()`` takes ``NOMINAL_S``.  The
mean, not the median: a batch's time integrates every slow moment of the
host, and so does the mean of samples spread evenly over the batch.

The kernel uses only numpy and the standard library, never the package, so
a change to the package does not move the reference.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# calibrated times are in units of a host where reference() takes this long;
# it is near what reference() takes when it interrupts a batch on one vCPU of
# a quiet 2.1 GHz Xeon KVM guest, so calibrated times read close to wall
# times there.  Only ratios between commits are compared, so any fixed value
# would do.
NOMINAL_S = 0.0040
INTERVAL_S = 0.1

_rng = np.random.default_rng(20221206)
_SMALL = _rng.random((2, 2))
_COLUMN = _rng.random((2, 1))
_MID = _rng.random((100, 100))
_STATE = _rng.random((100, 2))
_STACK = _rng.random((131072, 2, 2))  # 4 MiB


def reference() -> float:
    """The fixed reference work; returns a checksum so nothing is skipped."""
    acc = 0.0
    table = {}
    for i in range(7500):
        acc += (i * 0.5) % 7.0
        table[i % 61] = table.get(i % 61, 0) + 1
    for _ in range(750):
        acc += float((_SMALL @ _COLUMN)[0, 0])
    for _ in range(150):
        acc += float((_MID @ _STATE)[0, 0])
    acc += float(np.einsum("kij,kij->k", _STACK, _STACK).sum())
    return acc + len(table)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples ``reference()`` on a wall-clock interval timer while active.

    Use as a context manager around each batch: ``samples`` holds the
    timings of the current batch, ``spent`` the sum of all timings so far.
    One sample is always taken on entry, so a batch shorter than the
    interval still has one.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        dt = time_reference()
        self.samples.append(dt)
        self.spent += dt

    def work_clock(self) -> float:
        """Wall seconds minus the seconds spent in the probe."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from this batch's work seconds to calibrated seconds."""
        return NOMINAL_S / statistics.fmean(self.samples)


def calibrated_call(fn, repeats: int = 5):
    """Run ``fn`` once between two sets of reference samples.

    Returns (wall seconds, calibrated seconds, fn's result); for work that
    cannot be interrupted, such as waiting for a child process.
    """
    before = [time_reference() for _ in range(repeats)]
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    after = [time_reference() for _ in range(repeats)]
    return wall, wall * NOMINAL_S / statistics.fmean(before + after), result
