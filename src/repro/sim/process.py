"""Generator-based simulated processes.

A process wraps a Python generator.  Each value the generator yields must
be an :class:`~repro.sim.events.Event`; the process suspends until that
event fires and resumes with the event's value (or the event's exception
thrown into the generator).  A process is itself an event that fires with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.events import Event, PRIORITY_URGENT


class Process(Event):
    """A running simulated process (also an event: fires on completion)."""

    __slots__ = ("name", "_generator", "_waiting_on", "base_span")

    def __init__(self, env: "Environment",  # noqa: F821
                 generator: Generator[Event, Any, Any],
                 name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "Process requires a generator, got {!r}".format(generator))
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Event | None = None
        #: The spawner's telemetry span: per-process state lives on the process
        self.base_span: Any = None
        # Bootstrap: resume the generator at time now.
        bootstrap = Event(env)
        bootstrap._triggered = True  # noqa: SLF001 - kernel internal
        bootstrap.callbacks.append(self._resume)
        env.schedule(bootstrap, PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: BaseException) -> None:
        """Throw ``cause`` into the process at its current wait point."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        waited = self._waiting_on
        if waited is not None and not waited.processed:
            # Detach: the original event may still fire but will no
            # longer resume this process.
            try:
                waited.callbacks.remove(self._resume)  # type: ignore[union-attr]
            except (ValueError, AttributeError):
                pass
        kicker = Event(self.env)
        kicker.fail(cause)
        kicker.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        """Advance the generator by one step with ``event``'s outcome.

        The environment's ``active_process`` points at this process for
        exactly the duration of the generator step (saved and restored,
        since completing a process can resume its waiters re-entrantly),
        so telemetry knows which process any span or meter record
        belongs to.
        """
        self._waiting_on = None
        env = self.env
        generator = self._generator
        throw_exc: BaseException | None = event._exception  # noqa: SLF001
        pending = None
        previous = env.active_process
        env.active_process = self
        try:
            while True:
                try:
                    if throw_exc is not None:
                        pending, throw_exc = throw_exc, None
                        origin = pending.__traceback__
                        target = generator.throw(pending)
                    else:
                        target = generator.send(event._value)  # noqa: SLF001
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001 - feed into waiters
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    # The traceback starts at the generator's frame: this
                    # one holds ``self``, which would hold ``exc``.
                    self.fail(exc.with_traceback(exc.__traceback__.tb_next))
                    return
                if not isinstance(target, Event):
                    throw_exc = SimulationError(
                        "process yielded a non-event: {!r}".format(target))
                    continue
                if target.env is not env:
                    throw_exc = SimulationError(
                        "process yielded an event from another environment")
                    continue
                break
            self._waiting_on = target
            target.add_callback(self._resume)
        finally:
            env.active_process = previous
            if pending is not None and pending is not self._exception:
                # Handled here: the frames the throw put on it would tie
                # the event that still holds it to this generator's locals.
                pending.__traceback__ = origin

    def __repr__(self) -> str:
        return "<Process {} {}>".format(
            self.name, "alive" if self.is_alive else "done")
