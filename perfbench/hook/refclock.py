"""A clock that ticks at the speed of a fixed reference computation.

On a shared host the same pure-Python work can take 1.7 times as long from
one second to the next, because other tenants contend for the CPU and its
caches; CPU time grows with wall time, so neither shows the slowdown.
:class:`RefClock` samples the host's current speed with a SIGALRM timer: every
``INTERVAL_S`` the handler times one run of :func:`kernel`.  The wall time
since the previous sample counts ``NOMINAL_KERNEL_S / kernel time`` reference
seconds for each second, so a stretch at the nominal speed reads as its wall
time and a slowed stretch reads shorter.  The handler's own time is left out.

The kernel is a small dense product over Q with ``fractions.Fraction``:
allocation-heavy interpreter work like the program's, so it slows by about as
much when the host does.  Standard library only.
"""

from __future__ import annotations

import gc
import json
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
# The kernel's time on an idle 2-vCPU Xeon host with Python 3.11: a stretch
# of wall time at that speed reads as itself.
NOMINAL_KERNEL_S = 0.0014

_SEED = [[Fraction(i + j, 1 + (i * j) % 3) for j in range(6)] for i in range(6)]


def kernel():
    rows = _SEED
    for _ in range(2):
        rows = [[sum((rows[i][k] * rows[k][j] for k in range(6)), Fraction(0)) % 97
                 for j in range(6)] for i in range(6)]
    return rows


class RefClock:
    """Reference seconds since :meth:`start`; one per process."""

    def __init__(self):
        self.ref_s = 0.0  # reference seconds up to ``mark``
        self.work_s = 0.0  # wall seconds up to ``mark``, without the handler's
        self.handler_s = 0.0
        self.samples = 0
        self.speed = 1.0  # reference seconds per wall second, from the last sample
        self.mark = 0.0  # wall time the last sample ended

    def _sample(self):
        enabled = gc.isenabled()
        gc.disable()  # a collection is the program's cost, not the host's
        t = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.speed = NOMINAL_KERNEL_S / (end - t)
        self.samples += 1
        return t, end

    def _tick(self, signum, frame):
        start, end = self._sample()
        # The stretch since the last sample runs at the speed just measured.
        work = start - self.mark
        self.work_s += work
        self.ref_s += work * self.speed
        self.handler_s += end - start
        self.mark = end

    def start(self):
        t = time.perf_counter()
        kernel()  # warm the code path once
        _, self.mark = self._sample()
        self.handler_s = self.mark - t
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def now(self) -> float:
        """Reference seconds since :meth:`start`."""
        while True:
            samples = self.samples
            value = self.ref_s + (time.perf_counter() - self.mark) * self.speed
            if samples == self.samples:  # no tick landed while reading
                return value

    def summary(self) -> dict:
        ref_s = self.now()
        return {
            "ref_s": ref_s,
            "work_s": self.work_s + time.perf_counter() - self.mark,
            "handler_s": self.handler_s,
            "samples": self.samples,
        }


CLOCK: RefClock | None = None


def start(out_path: str) -> RefClock:
    """Start the process's clock and write its summary to ``out_path`` at exit."""
    global CLOCK
    import atexit

    CLOCK = RefClock()
    CLOCK.start()

    def _write():
        CLOCK.stop()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(CLOCK.summary(), fh)

    atexit.register(_write)
    return CLOCK
