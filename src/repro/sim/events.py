"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence scheduled on an
:class:`~repro.sim.engine.Environment`.  Processes wait on events by
yielding them; arbitrary callbacks may also be attached.  Composite
events (:class:`AllOf`, :class:`AnyOf`) combine several events.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError

# Priorities order simultaneous events deterministically: urgent events
# (process resumptions) fire before normal ones at the same timestamp.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, may be *triggered* with a value (scheduled
    to fire), and finally becomes *processed* once the environment has run
    its callbacks.  Events may also *fail*, propagating an exception into
    every waiting process.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_triggered")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once processed)."""
        return self._exception is None

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if not self._triggered:
            raise SimulationError("event value read before it was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env.schedule(self, PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env.schedule(self, PRIORITY_NORMAL)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            # Event already processed: run immediately so late waiters
            # still observe it (simplifies resource code).
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return "<{} {} at {:#x}>".format(type(self).__name__, state, id(self))


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,  # noqa: F821
                 value: Any = None) -> None:
        if delay < 0:
            raise SimulationError("negative timeout delay: {!r}".format(delay))
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self.delay = delay
        env.schedule(self, PRIORITY_NORMAL, delay)

    def __repr__(self) -> str:
        return "<Timeout delay={}>".format(self.delay)


class _Composite(Event):
    """Shared machinery for AllOf / AnyOf."""

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment",  # noqa: F821
                 events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Composite):
    """Fires when *all* child events have fired; value is their values."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # noqa: SLF001 - kernel internal
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed([child.value for child in self.events])


class AnyOf(_Composite):
    """Fires as soon as *any* child event fires; value is that value."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # noqa: SLF001 - kernel internal
            return
        self.succeed(event.value)
