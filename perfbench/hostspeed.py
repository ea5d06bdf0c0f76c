"""Host-speed sampling for the benchmark's time metrics.

The benchmark runs on shared machines whose speed drifts by tens of percent,
within seconds and over minutes, which swamps the changes a time bound is
meant to catch.  So while a workload is timed, a timer signal interrupts it
every ``INTERVAL_S`` to time a short, fixed pure-Python kernel that never
touches netalloc; the time spent in these interruptions is not counted.  A
timed stretch is then reported at nominal speed: its time multiplied by the
mean over the samples of ``NOMINAL_S / kernel time``.  A change to netalloc
moves that figure as it moves the raw time; a slow spell of the host mostly
does not, because it slows the kernel samples taken during it as well.

Importing this module builds the kernel's inputs; import it outside any
timed code.
"""

from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

NOMINAL_S = 0.0007  # kernel time at the nominal speed (its usual time where it was set)
INTERVAL_S = 0.05


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a = a
        self.b = b


_RNG = random.Random(0)
_KEYS = [_RNG.random() for _ in range(512)]
_POINTS = [_Point(i, float(i)) for i in range(400)]


def kernel_time() -> float:
    """Time one call of the kernel: dict updates, float arithmetic and
    small-object attribute access, the mix the dynamics spend their time on.
    Its data fit in a core's own caches, so that the sample measures the
    core's speed rather than how much of the cache netalloc left it; the
    garbage collector is off meanwhile, so that the sample does not pay for
    collecting netalloc's objects."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    rng, keys = _RNG, _KEYS
    rng.seed(1)
    table: dict = {}
    for _ in range(1_500):
        k = keys[rng.randrange(512)]
        table[k] = table.get(k, 0.0) + k * 0.5
    total = 0.0
    for p in _POINTS:
        if p.a % 3:
            total += p.a * p.b
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class Clock:
    """Times the code in a ``with`` block while sampling the host's speed.

    After the block, ``raw`` is its time without the interruptions and
    ``nominal`` that time at nominal speed.  One sample is taken just before
    and one just after the block, so that short blocks have samples too.
    """

    def __init__(self) -> None:
        self.kernel_times: list[float] = []
        self.raw = 0.0
        self.nominal = 0.0
        self._paused = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.kernel_times.append(kernel_time())
        self._paused += perf_counter() - t0

    def __enter__(self) -> Clock:
        self.kernel_times.append(kernel_time())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.kernel_times.append(kernel_time())
        self.raw = end - self._start - self._paused
        # the mean of the speeds, not of the times: each sample is weighted
        # by the time it stands for, and one slowed by a preemption counts
        # for little
        speeds = [NOMINAL_S / k for k in self.kernel_times]
        self.nominal = self.raw * sum(speeds) / len(speeds)
