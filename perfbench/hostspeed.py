"""Host-speed probe: timings in reference seconds.

The benchmark's host is a few vCPUs of a shared machine, and its CPU
speed swings by up to 1.9x for seconds to minutes at a time, as
neighbours load the cores (there is no hardware counter to count work
instead of time).  Raw wall time then measures the neighbours as much
as the program.  So while a pass runs, a SIGALRM timer interrupts it
every PROBE_EVERY_S and times a fixed reference task; the task's
duration tracks the host's speed at that moment.

`HostClock.scaled(a, b)` converts the wall-clock interval [a, b] into
reference seconds: the time the same work would take on a host where
the reference task takes REFERENCE_S.  The speed REFERENCE_S / duration
is interpolated linearly between probes, integrated over [a, b], and
the probes' own time is left out.  With probes 50 ms apart this
removes most of the swing: over ten seeds per workload (BASELINE.json)
the distance between the quartiles of wall time was 0.08-0.31 of the
median in raw seconds and 0.03-0.06 in reference seconds.  A change in
the program's own cost still shows in full, as the reference task runs
none of its code.

The task mixes the kinds of work the package does, since each kind
slows by its own factor when the host is busy: interpreter arithmetic,
dict building and sorting, a small numpy kernel, a product of two
40000-bit integers (as in Kronecker substitution) and elementwise
arithmetic on a 60000-entry array (as in the large gcd and divrem).
A probe that the OS delays past its neighbours would read as a dip in
speed, so each probe's speed is the median of it and its two
neighbours.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.05
# a round figure near the reference task's median duration run alone
# (2.16 ms) on the 2-vCPU host (Python 3.11, numpy 2.4) that defined
# the benchmark; inside a pass the task runs slower, as the workload
# has evicted its data, so reference seconds there come out below
# that host's raw seconds (0.75-0.9 of them in BASELINE.json)
REFERENCE_S = 2.0e-3

_KEYS = [(i * 7919) % 100003 for i in range(1000)]
_ARR = np.arange(300, dtype=np.int64)
_X, _Y, _Z = 3 ** 3000, 7 ** 2500, 11 ** 2000
_BIG_X = random.Random(1).getrandbits(40000)
_BIG_Y = random.Random(2).getrandbits(40000)
_LONG = np.arange(60000, dtype=np.int64)


def reference_task() -> None:
    s = 0
    for i in range(2000):
        s += i * i
    d = {}
    for i, k in enumerate(_KEYS):
        d[k] = i
    sorted(d.items())
    np.convolve(_ARR, _ARR) % 1000003
    (_X * _Y) % _Z
    _BIG_X * _BIG_Y
    (_LONG * 31 + 7) % 65521


def probe() -> float:
    t = time.perf_counter()
    reference_task()
    return time.perf_counter() - t


def speed_now(samples: int = 5) -> float:
    """Reference seconds per wall second, from a few probes in a row
    after one that warms the task up."""
    probe()
    return REFERENCE_S / statistics.median(probe() for _ in range(samples))


class HostClock:
    """Probes the host's speed through a pass; see the module docstring."""

    def __init__(self):
        self.probes = []  # (start, end) of every probe, in order
        self._xs = []  # probe midpoints
        self._rs = []  # speed at each midpoint
        self._cum = []  # integral of the speed up to each midpoint
        self._previous = None

    def _sample(self, *_):
        t = time.perf_counter()
        reference_task()
        self.probes.append((t, time.perf_counter()))

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._xs = [(s + e) / 2 for s, e in self.probes]
        speeds = [REFERENCE_S / (e - s) for s, e in self.probes]
        self._rs = [statistics.median(speeds[max(0, i - 1):i + 2]) for i in range(len(speeds))]
        self._cum = [0.0]
        for i in range(1, len(self._xs)):
            step = (self._xs[i] - self._xs[i - 1]) * (self._rs[i] + self._rs[i - 1]) / 2
            self._cum.append(self._cum[-1] + step)

    def _integral(self, t: float) -> float:
        xs, rs, cum = self._xs, self._rs, self._cum
        if t <= xs[0]:
            return (t - xs[0]) * rs[0]
        if t >= xs[-1]:
            return cum[-1] + (t - xs[-1]) * rs[-1]
        i = bisect.bisect_right(xs, t) - 1
        r = rs[i] + (rs[i + 1] - rs[i]) * (t - xs[i]) / (xs[i + 1] - xs[i])
        return cum[i] + (t - xs[i]) * (rs[i] + r) / 2

    def _inside(self, a: float, b: float):
        lo = bisect.bisect_left(self.probes, (a,))
        hi = bisect.bisect_left(self.probes, (b,))
        return [(s, e) for s, e in self.probes[lo:hi] if e <= b]

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of work done in [a, b], probes left out."""
        f = self._integral
        return f(b) - f(a) - sum(f(e) - f(s) for s, e in self._inside(a, b))

    def raw(self, a: float, b: float) -> float:
        """Wall seconds in [a, b], probes left out."""
        return b - a - sum(e - s for s, e in self._inside(a, b))

    def slowdown(self) -> float:
        """Median probe duration over REFERENCE_S, for the record."""
        return statistics.median(e - s for s, e in self.probes) / REFERENCE_S
