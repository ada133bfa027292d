"""Reference-speed calibration for timings on a machine whose speed drifts.

On a shared host the same call can take 30% longer from one second to
the next.  The benchmark runs a fixed pure-Python kernel right before and
right after every timed call, and every ``PERIOD`` seconds during a long
one, and divides the call's time by the median kernel time there, so both
see the same machine state.  A call of seconds needs the probes inside it:
the host's speed moves within the call, and the two probes at its ends
alone scatter the scaled times more than the raw ones.  Scaled back by
``REF_S`` the result reads as seconds on a machine where the kernel takes
``REF_S``.  The kernel uses nothing from the program, so a change to the
program moves only the numerator.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

import stats

REF_S = 0.001  # nominal kernel time, about what one core of a 2.1 GHz VM takes
PERIOD = 0.1


def kernel() -> dict:
    """Fresh Fractions in dense lists and sparse rows, the program's kind of work.

    Half of it is arithmetic on a few values, half is allocation of short-lived
    objects, so the probe slows down under both kinds of contention.
    """
    row = {j: Fraction(j + 1, 3) for j in range(20)}
    acc: dict[int, Fraction] = {}
    for k in range(6):
        c = Fraction(k + 2, 7)
        for j, v in row.items():
            w = acc.get(j, 0) + c * v
            if w:
                acc[j] = w
    dense = [Fraction(i % 11 - 5, 1 + i % 3) for i in range(150)]
    rows = [{j: v for j, v in enumerate(dense[k::7]) if v} for k in range(7)]
    for r in rows:
        for j, v in r.items():
            w = acc.get(j, 0) + v * v
            if w:
                acc[j] = w
    return acc


def probe() -> float:
    """Wall time of one kernel call, measured now.

    The cyclic collector is off during the call, so a collection over the
    program's live heap does not land in the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probes: list[float]) -> float:
    """Factor turning a wall time taken among these probes into reference seconds."""
    return REF_S / stats.median(probes)


class Sampler:
    """Probes on SIGALRM every PERIOD seconds while a timed call runs.

    Signal handlers run in the main thread between bytecodes, so a probe
    interrupts a call made in this process; ``stolen`` is the time the
    probes took, which the caller then subtracts from the call's wall time.
    A call that waits for a child process is not slowed by the probes.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.stolen = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
