"""Normalised time: wall time corrected for the speed of a shared machine.

Other tenants of a shared machine slow every instruction this process runs,
in phases that last from tens of milliseconds to minutes. On the 2-core
machine this benchmark was built on, the same call took between 1.0 and 1.6
times its fastest wall time within a few minutes, so wall-clock figures
from two runs could not be compared. Instead, an interval timer runs a
small fixed piece of reference work every SAMPLE_EVERY_S seconds while the
benchmark runs, and times it. A call's normalised time is its wall time,
less the time spent sampling, times REFERENCE_S over the median sample time
during the call: the seconds the call would take on a machine where the
reference work takes exactly REFERENCE_S. The program and the reference
work slow down together, so the ratio holds still while wall time does not.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.02
# the unit of normalised time; a fixed constant, like the reference work
REFERENCE_S = 0.0004
# a call with fewer samples of its own uses the most recent MIN_SAMPLES
MIN_SAMPLES = 10

_DATA = bytes((i * 2654435761 >> 13) & 255 for i in range(1024))
_SLICES = {_DATA[i : i + 8]: 0 for i in range(1016)}
_COUNTS = [0] * 1024
_ROWS = [[(i * 7 + j) % 3 for j in range(8)] for i in range(64)]
_TOTALS = [[0] * 8 for _ in range(16)]


def _reference_work() -> int:
    """Fixed interpreter-bound work in the style of the toolkit's hot loops:
    integer arithmetic, a table of counters, a table keyed by bytes slices,
    row updates on a list of lists, and gcd reductions. It allocates no
    container, so it never triggers the garbage collector, whose cost would
    depend on the heap the interrupted call has built. It must never change,
    whatever the toolkit does."""
    acc = 1
    for i in range(200):
        acc = (acc * 1103515245 + _DATA[i]) & 0xFFFFFFFF
        _COUNTS[acc & 1023] += 1
        _SLICES[_DATA[i : i + 8]] += 1
        row, totals = _ROWS[i & 63], _TOTALS[i & 15]
        for y in range(8):
            totals[y] += row[y]
        acc //= math.gcd(acc, 6) or 1
    return acc


class Clock:
    """Samples the reference work from SIGALRM until ``close``."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _reference_work()
        dt = time.perf_counter() - t0
        self._samples.append(dt)
        self._spent += dt

    def call(self, fn, own_samples: bool = True) -> tuple[object, float, float]:
        """Run fn() and return (result, wall seconds, scale); wall times the
        scale is the call's normalised time. A call that keeps other cores
        busy passes own_samples=False: the samples taken during it would
        measure its own load, so the ones taken before it are used."""
        first, spent, t0 = len(self._samples), self._spent, time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - (self._spent - spent)
        end = len(self._samples) if own_samples else first
        window = self._samples[first:end]
        if len(window) < MIN_SAMPLES:
            window = self._samples[:end][-MIN_SAMPLES:]
        # the median: an interrupt that lands in a sample must not move it
        return result, wall, REFERENCE_S / statistics.median(window)
