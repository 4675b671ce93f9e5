"""The machine's current speed, read from a fixed pure-Python reference kernel.

The reference machine (2 virtual cores of a shared host) changes speed in
episodes: for ten seconds to minutes at a time, every piece of Python code in
the process runs 1.5 to 2.5 times slower, set-up and program alike, and the
kernel reports no steal time. Taking the fastest of a few repeats only helps
while some repeat falls outside such an episode.

So timed work runs between probes: short, fixed runs of a kernel that uses
what the library uses (dicts keyed by tuples, sorting, `Fraction`
arithmetic, small objects, a heap). A measured time is scaled by
`REFERENCE_PROBE_S` over the mean of the probes around it, which gives the
time the work would have taken with the machine at its reference speed.
A set-up runs between two probes (`timed`); a simulation has a probe before
each event it processes (`EventClock`), since the speed can change several
times within one simulation.
The kernel belongs to the benchmark, so a change to the library leaves it
alone; it runs with the cycle collector off, so the size of the program's
heap does not enter its time either.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from fractions import Fraction

# the probe's time on the reference machine (2-core x86_64 Xeon VM, 2.1 GHz,
# Python 3.11) when no slow episode is under way
REFERENCE_PROBE_S = 0.003
PROBE_RUNS = 3


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def join(self, other):
        return _Pair(self.a + other.b, min(self.b, other.a))


def _kernel():
    table: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = ((i * 7919) % 1009, i % 13)
        table[key] = table.get(key, 0) + i
    ranked = sorted(table.items(), key=lambda kv: kv[1])
    total = Fraction(0)
    step = Fraction(3, 7)
    for i in range(1, 270):
        total += step * Fraction(i, i + 3)
        if total > 50:
            total -= 49
    heap: list[tuple[int, int]] = []
    pair = _Pair(1, 2)
    for i in range(1300):
        pair = pair.join(_Pair(i % 17, i % 5))
        heapq.heappush(heap, (pair.a % 97, i))
        if len(heap) > 50:
            heapq.heappop(heap)
    return len(ranked), total, heap[0]


def probe(runs: int = PROBE_RUNS) -> float:
    """Seconds of one run of the reference kernel: the median of `runs` runs
    in a row, so that one interrupted run does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def timed(fn, *args, **kwargs):
    """Run `fn` between two probes: (result, seconds, scale), where the
    seconds times `scale` are the seconds at the reference speed."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    return result, seconds, REFERENCE_PROBE_S / ((before + probe()) / 2)


class EventClock:
    """Times every call of `owner.attr` (Simulation.process) at the reference
    speed while entered.

    The machine can change speed several times within one simulation, so a
    single kernel run probes it before each call, and once more on exit.
    Each call is scaled by the probes on either side of it. `probe_s` is the
    wall time of the probes before calls, to be taken out of any time that
    encloses the calls.
    """

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.calls: list[float] = []
        self.probes: list[float] = []
        self.probe_s = 0.0

    def __enter__(self):
        fn = self.owner.__dict__[self.attr]
        clock = self

        def timed_call(*args, **kwargs):
            start = time.perf_counter()
            clock.probes.append(probe(1))
            clock.probe_s += time.perf_counter() - start
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.calls.append(time.perf_counter() - start)

        self._saved = fn
        setattr(self.owner, self.attr, timed_call)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._saved)
        self.probes.append(probe(1))

    def scales(self) -> list[float]:
        """Per call: REFERENCE_PROBE_S over the mean of the probes around it."""
        p = self.probes
        return [2 * REFERENCE_PROBE_S / (p[i] + p[i + 1]) for i in range(len(self.calls))]

    def scale(self) -> float:
        """REFERENCE_PROBE_S over the mean of all probes."""
        return REFERENCE_PROBE_S * len(self.probes) / sum(self.probes)
