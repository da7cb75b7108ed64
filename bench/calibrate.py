"""Host-speed calibration: a fixed pure-Python kernel timed during the work.

The benchmark runs on shared virtual machines whose speed drifts with the
load of other tenants, by a factor of two within seconds. That drift slows
the interpreter as a whole, so it slows this kernel and riccicert alike,
while riccicert code changes cannot move the kernel. ``Sampler`` times one
short slice of the kernel every ``SAMPLE_INTERVAL_S`` of wall time from a
``SIGALRM`` handler, in the measuring thread itself, so that the samples
cover the passes evenly, however long a pass is. ``run.py`` scales pass and
instance times by ``REFERENCE_SLICE_S / mean slice time`` over the pass,
which turns seconds on the host as it was during the pass into seconds on
the reference machine in its fastest state, and each setup sample by slices
timed in the same fresh interpreter right after its import. The time spent
in the handler is left out of every measured time.

The kernel uses the operations riccicert's scalar code is made of: method
calls on small objects, tuple packing, ``bisect`` over breakpoints, float
arithmetic, ``math`` calls, ``min``/``max``/``abs``, a dict and string
formatting. It imports nothing from riccicert.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
from time import perf_counter

# Slice time on the reference machine, a 2-vCPU Intel Xeon VM with Python
# 3.11.7, in its fastest state: slices there took 1-2.2 times as long as
# the load on its host came and went. Only ratios of scaled times matter,
# so this constant sets the unit, not the comparison.
REFERENCE_SLICE_S = 0.0042
# Kernel iterations of one slice.
SLICE_ITERATIONS = 4_000
# Wall time between slices: 2-5% of the run goes to calibration.
SAMPLE_INTERVAL_S = 0.2
# A pass's speed is the mean of the slices within its span, widened to at
# least this long around its middle, so that a short pass has samples too.
MIN_WINDOW_S = 1.0

_BREAKS = [i / 16.0 for i in range(17)]


class _Cubic:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def jet(self, x: float) -> tuple:
        c0, c1, c2, c3 = self.coeffs
        return (c0 + x * (c1 + x * (c2 + x * c3)),
                c1 + x * (2.0 * c2 + 3.0 * c3 * x),
                2.0 * c2 + 6.0 * c3 * x)


_PIECES = [_Cubic((math.sin(i), math.cos(i), 0.1 * i, -0.01 * i))
           for i in range(16)]


def _kernel(iterations: int) -> float:
    acc, table = 0.0, {}
    for i in range(iterations):
        x = (i * 0.618033988749895) % 1.0
        k = min(bisect.bisect_right(_BREAKS, x) - 1, 15)
        value, d1, d2 = _PIECES[k].jet(x - _BREAKS[k])
        s = max(abs(d2), 1e-9)
        acc += math.exp(-s) * value - d1 / (1.0 + s)
        if i % 64 == 0:
            table[k] = format(acc, ".12g")
    return acc + len(table)


def time_slice() -> float:
    """Seconds one slice of the kernel takes now. The garbage collector is
    off meanwhile, so that the size of the heap around the kernel, which
    riccicert's caches set, does not enter the slice time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel(SLICE_ITERATIONS)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(slice_s: float) -> float:
    """Factor from the host's speed, measured as mean slice time
    ``slice_s``, to the reference machine's."""
    return REFERENCE_SLICE_S / slice_s


class Sampler:
    """Times a slice every ``SAMPLE_INTERVAL_S`` while entered. Time the
    work with ``clock`` in place of ``perf_counter``: it stands still while
    a slice runs."""

    def __init__(self):
        self.samples = []  # (perf_counter at the slice's end, slice_s)
        self.spent_s = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self.spent_s

    def _handler(self, signum, frame):
        if self._busy:  # a slice slower than the interval: skip, not nest
            return
        self._busy = True
        try:
            start = perf_counter()
            slice_s = time_slice()
            end = perf_counter()
            self.samples.append((end, slice_s))
            self.spent_s += end - start
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_slice(self, start: float, end: float) -> float:
        """Mean slice time over ``[start, end]`` (``perf_counter`` times),
        widened to ``MIN_WINDOW_S``; the nearest slice if none fell in."""
        half = max(end - start, MIN_WINDOW_S) / 2.0
        mid = (start + end) / 2.0
        inside = [s for t, s in self.samples if abs(t - mid) <= half]
        if inside:
            return statistics.fmean(inside)
        return min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]
