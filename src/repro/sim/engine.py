"""The simulation environment: clock plus event loop.

:class:`Environment` owns the simulated clock and the priority queue of
scheduled events.  It offers the small factory API the rest of the
library uses: ``env.timeout(...)``, ``env.process(...)``,
``env.event()``, ``env.run(...)``.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from typing import Any, Generator, List, Optional, Tuple  # noqa: F401

from repro.errors import SimulationDeadlock, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process


@contextmanager
def _collector_paused():
    """Pause CPython's cyclic collector while the kernel steps; put back
    the caller's state on every exit.  A run leaves nothing only a pass
    could free (``tests/warehouse/test_no_garbage.py``), so a pass inside
    one would walk every live object to free none."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Environment:
    """Deterministic discrete-event simulation environment.

    :meth:`run` and :meth:`run_process` step with CPython's cyclic
    collector paused and put back the caller's state on every exit.

    Example
    -------
    >>> env = Environment()
    >>> def hello(env):
    ...     yield env.timeout(3.0)
    ...     return env.now
    >>> proc = env.process(hello(env))
    >>> env.run()
    >>> proc.value
    3.0
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0
        #: The process whose generator is currently being stepped (kernel
        #: maintained).  Telemetry reads its span stack (``Process.spans``)
        #: so concurrent simulated processes each carry their own span.
        self.active_process: Optional[Process] = None
        #: Optional telemetry hook (a ``TelemetryHub``); when set, every
        #: spawned process is announced so it inherits the spawner's span.
        self.telemetry: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Start a new simulated process from ``generator``."""
        proc = Process(self, generator, name=name)
        if self.telemetry is not None:
            self.telemetry.on_process_spawned(proc)
        return proc

    # -- scheduling (kernel internal) ---------------------------------------

    def schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        """Enqueue ``event`` to be processed ``delay`` seconds from now."""
        self._sequence += 1
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._sequence, event))

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _priority, _seq, event = heapq.heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if queue is empty."""
        return self._queue[0][0] if self._queue else None

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop.

        With ``until=None``, runs until no events remain.  With a numeric
        ``until``, runs until the clock reaches that time (events at
        exactly ``until`` are *not* processed) and then sets ``now`` to
        ``until``.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                "run(until={}) is in the past (now={})".format(until, self._now))
        with _collector_paused():
            while self._queue:
                if until is not None and self._queue[0][0] >= until:
                    self._now = until
                    return
                self.step()
        if until is not None:
            self._now = until

    def run_process(self, generator: Generator[Event, Any, Any],
                    name: str = "") -> Any:
        """Start a process, run *until it completes*, return its value.

        The loop stops as soon as the process finishes — pending
        unrelated events (e.g. lease watchdogs armed far in the future)
        stay queued and do **not** advance the clock past the process's
        completion time.  Raises :class:`SimulationDeadlock` if the
        event queue drains before the process finishes (it is waiting on
        an event nobody will ever trigger).
        """
        proc = self.process(generator, name=name)
        with _collector_paused():
            while not proc._triggered:  # noqa: SLF001 - is_alive, no call
                if not self._queue:
                    raise SimulationDeadlock(
                        "process {!r} never completed (deadlock)".format(
                            proc.name))
                self.step()
        return proc.value
