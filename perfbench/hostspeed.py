"""Host-speed normalisation of the benchmark's timings.

The benchmark's reference host is two CPUs of a shared machine whose
speed drifts with its neighbours' load: a fixed pure-Python loop's
1-second averages swing by about +-20%, whole runs minutes apart ran at
speeds a factor of 1.9 apart, and CPU time tracks wall time, so this is
host speed, not scheduling.  A timing taken in a slow minute and one
taken in a fast minute then differ by far more than any change to the
program would.

So every timing is also measured against a *speed probe*: a fixed
pure-Python kernel that touches nothing of the program.  While a phase
runs, a ``SIGALRM`` interval timer runs the probe every
:data:`INTERVAL_S` seconds on the main thread, between the program's
bytecodes.  The probe's own time is taken out of every interval it
falls in, and each interval is rescaled by the host speed around it:

    reference seconds = wall seconds x PROBE_REF_S / probe seconds

that is, the time the same work would take on a host where one probe
takes :data:`PROBE_REF_S`.  A change to the program moves the reference
seconds just as it moves the wall seconds; a change of host speed moves
only the latter.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import Callable, List

#: Seconds one probe takes on the reference host.  It only fixes the
#: scale of the reported timings: reference seconds are wall seconds on
#: a host where :func:`probe` takes this long.
PROBE_REF_S = 0.00075

#: Seconds between two probes of a :class:`Sampler`.  With a probe of
#: about 0.75 ms this spends about 3% of a phase probing; the probe time
#: is taken out of every timing.  Shorter is better: the host's speed
#: changes within a fraction of a second.
INTERVAL_S = 0.025

#: Probes run before and after a bracketed child process.
BRACKET_PROBES = 8


def _kernel() -> int:
    # Interpreter dispatch, calls, int arithmetic, dict and list work,
    # like the program's own pure-Python code; ints only, so it leaves
    # no garbage for the cyclic collector.
    table = {}
    for i in range(2400):
        table[i] = _mix(i)
    total = 0
    for key in table:
        total += table[key] ^ key
    ordered = sorted(table.values())
    return total + ordered[len(ordered) // 2]


def _mix(i: int) -> int:
    return (i * 7919 + 17) % 1009


def probe() -> float:
    """Seconds one run of the fixed kernel takes now.  The collector is
    held off, so the probe never pays for the program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def bracket(run: Callable[[], float]) -> float:
    """Reference seconds of ``run()``, which returns wall seconds of work
    done elsewhere (a child process): probes before and after give the
    host speed around it."""
    before = [probe() for _ in range(BRACKET_PROBES)]
    wall = run()
    after = [probe() for _ in range(BRACKET_PROBES)]
    speeds = [PROBE_REF_S / s for s in before + after]
    return wall * sum(speeds) / len(speeds)


class Sampler:
    """Probes the host every :data:`INTERVAL_S` while active.

    ``now()`` is a clock that stops while a probe runs, so the spans the
    workload times with it exclude probe time; ``reference(start, end)``
    rescales such a span by the probes taken during it (widened by one
    interval, so a short span gets its nearest probes).
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.speeds: List[float] = []
        self.probe_s = 0.0
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.probe_s

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        seconds = probe()
        self.times.append(start - self.probe_s)
        self.speeds.append(PROBE_REF_S / seconds)
        self.probe_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self, start: float, end: float) -> float:
        """Mean host speed (1.0 = the reference host) over the ``now()``
        span [start, end]."""
        lo = bisect.bisect_left(self.times, start - INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + INTERVAL_S)
        window = self.speeds[lo:hi]
        if not window:
            nearest = min(range(len(self.times)),
                          key=lambda i: abs(self.times[i] - start))
            window = [self.speeds[nearest]]
        return sum(window) / len(window)

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the ``now()`` span [start, end]."""
        return (end - start) * self.speed(start, end)
