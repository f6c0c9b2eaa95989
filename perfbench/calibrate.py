"""A calibration kernel, sampled during operations, that gauges the
machine's current speed.

On a shared host the same operation can take 1.0 s or 1.7 s a minute
apart, with CPU time tracking wall time: the machine itself runs slower
or faster for stretches of seconds.  The kernel is a fixed piece of work
that resembles slgl's own (a Python loop, numpy transcendentals over a
mode-by-node array, a small dense solve, a step loop over small arrays)
and uses nothing from slgl, so a change to slgl cannot move it.

A ``Sampler`` runs the kernel for a few milliseconds every ``PERIOD``
seconds from a SIGALRM handler, so it samples the speed *during* an
operation, not only around it.  An operation's time, less the time
spent in the sampler, divided by the mean kernel time sampled inside it,
is the operation's cost in kernel units (``op_cal``): a change of
machine speed largely cancels out of it, a change of the program does
not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.2
REPS = 5  # about 7 ms per sample: the sampler takes about 3% of the time

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((96, 96)) + 96.0 * np.eye(96)
_B = np.ones(96)
_X = np.linspace(0.0, 3.0, 400)
_L = np.arange(1.0, 41.0)


def _work() -> float:
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    # vectorized transcendentals, as in the kernel series and phi0
    grid = np.outer(_L, _X)
    s += float(np.cos(grid).sum()) + float(np.exp(-grid).sum())
    s += float(np.linalg.solve(_A, _B)[0])
    # a step loop over small arrays, as in the forward oracle's RK4
    y, dy, l2, h = np.ones_like(_L), np.zeros_like(_L), _L**2, 1e-3
    for _ in range(60):
        y2 = y + 0.5 * h * dy
        dy2 = dy - 0.5 * h * l2 * y
        y, dy = y + h * dy2, dy - h * l2 * y2
    return s + float(y[0])


def kernel_s(reps: int = REPS) -> float:
    """Wall time of ``reps`` repetitions of the fixed work."""
    t0 = time.perf_counter()
    for _ in range(reps):
        _work()
    return time.perf_counter() - t0


class Sampler:
    """Times ``kernel_s()`` every ``period`` seconds while started."""

    def __init__(self, period: float = PERIOD, reps: int = REPS):
        self.period = period
        self.reps = reps
        self.samples = []  # kernel times, in order
        self.spent = 0.0  # seconds spent in the handler, kernel included

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_s(self.reps))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return len(self.samples), self.spent

    def since(self, mark: tuple) -> tuple:
        """(seconds spent sampling, mean kernel time) since ``mark``.

        With no sample since ``mark`` the latest one stands in; with
        none at all the mean is None.
        """
        n, spent = mark
        recent = self.samples[n:] or self.samples[-1:]
        return self.spent - spent, statistics.fmean(recent) if recent else None
