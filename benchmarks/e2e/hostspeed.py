"""Host-speed sampling: how fast is this machine *while* it is measured?

The box this benchmark was sized on is a 2-vCPU guest of a shared host.
Its speed flips between about 1.0x and 1.45x on a scale of seconds and
sits near 2x for minutes at a time; processor time tracks wall time, so
it is the host's speed, not stolen time, and nothing inside the guest
can subtract it.  Ten raw runs spread 10-30 % there (distance between
their quartiles over their median), which would hide any change this
benchmark is meant to resolve.

So the harness measures the host's speed at the moments it measures the
program.  An interval timer interrupts the measured step every
``PERIOD_S`` and times a fixed, interpreter-bound kernel (about 4 ms
after a 1 ms warm-up; the step subtracts that time from its own).  A
step's *host factor* is the mean kernel time over the step (padded by
``PAD_S`` either side) over ``REFERENCE_S``, raised to ``SENSITIVITY``;
dividing the step's net wall time by it gives the seconds the step
would take on the idle reference box.

Measured while sizing, on 136 back-to-back 600-document builds through
a stretch where the host factor went from 1.0 to 2.6: the build's net
time follows the mean kernel time with r = 0.96 and a log-log slope of
0.74 (0.79 on the closed-loop and the serving workload), i.e. the
program -- larger working set, more cache misses -- loses less to a
busy neighbour than the tight kernel does.  Raw, single builds spread
23 %; divided by the factor, 6.8 %; the median of four, under 5 %.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List, Tuple

__all__ = ["HostSpeedSampler", "REFERENCE_S"]

#: Seconds one kernel takes on the reference box when nothing else runs.
REFERENCE_S = 0.0042
#: How much of the kernel's slowdown the program shows (the log-log
#: slope above; 1.0 would over-correct a 2x stretch by ~20 %).
SENSITIVITY = 0.75
#: Timer period: ~5 % of the measured time goes to the kernel.
PERIOD_S = 0.1
#: A section also counts the samples this close outside it, so that a
#: section shorter than a second still has ten or more.
PAD_S = 0.5
#: Untimed kernel steps before each timed kernel: the timer lands on a
#: processor whose caches hold the program, and a cold start is what a
#: busy neighbour slows most (the samples track the program's own
#: slowdown with r = 0.96 warmed up, 0.85 cold).
WARM_UP_STEPS = 3000
#: Kernels timed back to back when sampling starts and stops, so the
#: first and last section have samples on their outer side too.
EDGE_SAMPLES = 5

_clock = time.perf_counter


def kernel(steps: int = 10000) -> int:
    """A fixed piece of interpreter-bound work shaped like the program:
    dict and list updates, string keys, tuple allocation."""
    table: Dict[str, int] = {}
    rows: List[Tuple[int, str]] = []
    for tick in range(steps):
        key = "k{}".format(tick & 1023)
        table[key] = table.get(key, 0) + tick
        rows.append((tick, key))
        if len(rows) > 512:
            rows.clear()
    return len(table)


class HostSpeedSampler:
    """Times the kernel on a timer while a round is being measured."""

    def __init__(self) -> None:
        #: ``(start, duration)`` of every kernel run, perf_counter clock.
        self.samples: List[Tuple[float, float]] = []
        #: Seconds the timer's kernel runs took so far: whatever they
        #: interrupted subtracts the difference from its own wall time.
        self.busy_s = 0.0
        self._previous = None

    def _sample(self) -> None:
        kernel(WARM_UP_STEPS)
        started = _clock()
        kernel()
        self.samples.append((started, _clock() - started))

    def _on_timer(self, _signum: int, _frame: object) -> None:
        started = _clock()
        self._sample()
        self.busy_s += _clock() - started

    def start(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def factor(self, start: float, end: float) -> float:
        """The program's slowdown over ``[start, end]`` (1.0 = idle
        reference box)."""
        inside = [duration for began, duration in self.samples
                  if start - PAD_S <= began <= end + PAD_S]
        return (sum(inside) / len(inside) / REFERENCE_S) ** SENSITIVITY
