"""Shared simulated resources: capacity-limited resources, FIFO stores
and fluid-model throughput limiters.

These are the building blocks of the cloud service models:

- :class:`Resource` models a pool of identical slots (e.g. the cores of
  an EC2 instance, or a service's concurrent-request limit);
- :class:`Store` models an unbounded FIFO of items with blocking ``get``
  (the backing structure of the SQS queue model);
- :class:`ThroughputLimiter` models *provisioned throughput*: a fluid
  server that absorbs work at a fixed rate, so concurrent demand beyond
  the provisioned rate queues up and accrues latency — exactly the
  DynamoDB saturation effect the paper observes in Figure 10.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event


class Resource:
    """A pool of ``capacity`` identical slots acquired FIFO.

    Usage from a process::

        slot = yield resource.request()
        try:
            yield env.timeout(work)
        finally:
            resource.release(slot)
    """

    def __init__(self, env: "Environment", capacity: int) -> None:  # noqa: F821
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self._in_use

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        event = Event(self.env)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self, _slot: Any = None) -> None:
        """Release one held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO item store with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item once one is available.
    """

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter if any.

        Getters whose process was interrupted while waiting (chaos
        worker crashes) are detached corpses — their event has no
        callbacks left.  They are skipped, not fed, so an item can
        never be delivered to a dead process and silently lost.
        """
        while self._getters:
            getter = self._getters.popleft()
            if getter.callbacks:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (oldest first), without removing."""
        return list(self._items)


class ThroughputLimiter:
    """Fluid-model shared server with a fixed absorption ``rate``.

    A request of ``amount`` units occupies the server for
    ``amount / rate`` seconds, FIFO behind earlier requests.  The event
    returned by :meth:`consume` fires when the request has been fully
    absorbed; its value is the *queueing delay* the request experienced
    (time spent waiting behind other requests, excluding its own service
    time).  This reproduces provisioned-throughput saturation: when many
    clients push concurrently at an aggregate rate above ``rate``, their
    completion times spread out linearly.
    """

    def __init__(self, env: "Environment", rate: float,  # noqa: F821
                 name: str = "limiter") -> None:
        if rate <= 0:
            raise SimulationError("ThroughputLimiter rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.name = name
        self._next_free = 0.0
        self.total_units = 0.0
        self.total_queue_delay = 0.0
        self.requests = 0

    @property
    def backlog_seconds(self) -> float:
        """Seconds of queued work currently ahead of a new request."""
        return max(0.0, self._next_free - self.env.now)

    def consume(self, amount: float) -> Event:
        """Absorb ``amount`` units; returns an event firing at completion."""
        if amount < 0:
            raise SimulationError("negative consume amount")
        now = self.env.now
        start = max(now, self._next_free)
        service = amount / self.rate
        finish = start + service
        self._next_free = finish
        queue_delay = start - now
        self.requests += 1
        self.total_units += amount
        self.total_queue_delay += queue_delay
        return self.env.timeout(finish - now, value=queue_delay)
