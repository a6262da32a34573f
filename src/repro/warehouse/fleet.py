"""A worker fleet's lifecycle: launch, crash, retire, drain, stop.

The paper's architecture (§3) has one pattern for every module on EC2:
worker instances drain an SQS queue until a poison pill stops them, and
when an instance dies mid-task its message lease lapses so another
instance picks the message up.  A :class:`Fleet` is that pattern, once,
for the loaders of a build or a delta publication and the query
processors of a workload or a serving run.  It keeps every member it
ever launched, so a build report sums the stats of crashed workers and
their replacements and serving bills the uptime of retired ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.errors import InstanceCrashed, InstanceRetired
from repro.warehouse.messages import StopWorker

__all__ = ["DRAIN_POLL_INTERVAL_S", "Fleet", "MARKET_ON_DEMAND",
           "MARKET_SPOT"]

#: Capacity markets a fleet member may be bought from.
MARKET_ON_DEMAND = "on-demand"
MARKET_SPOT = "spot"

#: How often :meth:`Fleet.drain` polls its queue (simulated seconds).
DRAIN_POLL_INTERVAL_S = 0.25


@dataclass
class _Member:
    """One fleet slot: instance + worker + the worker's process."""

    instance: Any
    worker: Any
    proc: Any
    market: str = MARKET_ON_DEMAND


class Fleet:
    """Instances each running one worker process over a shared queue.

    ``worker_factory(instance)`` builds a worker exposing ``run()`` (the
    process generator); serving workers also expose the ``busy`` flag
    :meth:`retire` and :meth:`idle_members` read.  Worker processes are
    named ``"{name}-{n}"``, ``n`` counting launches from 1.
    """

    def __init__(self, cloud: Any, instance_type: str,
                 worker_factory: Callable[[Any], Any],
                 name: str = "serve-worker") -> None:
        self._cloud = cloud
        self._instance_type = instance_type
        self._factory = worker_factory
        self._name = name
        #: The :class:`~repro.serving.spot.SpotMarket` watching spot
        #: members for seeded interruptions, once serving sets one.
        self.spot_market: Optional[Any] = None
        #: The members in the fleet now (crashed and retired ones leave).
        self.members: List[_Member] = []
        #: Every member the fleet ever launched, in launch order.
        self.launched: List[_Member] = []
        #: Every size change as ``(simulated time, new size)``.
        self.timeline: List[Tuple[float, int]] = []
        self.retired_total = 0
        self.retired_busy_total = 0

    @property
    def size(self) -> int:
        """Current fleet size."""
        return len(self.members)

    @property
    def instance_type(self) -> str:
        """Instance type every member runs on."""
        return self._instance_type

    @property
    def spot_size(self) -> int:
        """Current number of spot members."""
        return sum(1 for m in self.members if m.market == MARKET_SPOT)

    def idle_members(self) -> List[_Member]:
        """Members whose worker holds no query right now."""
        return [m for m in self.members if not m.worker.busy]

    def _live(self) -> int:
        """Members whose worker process still runs."""
        return sum(1 for m in self.members if m.proc.is_alive)

    def _mark(self) -> None:
        now = self._cloud.env.now
        if self.timeline and self.timeline[-1][0] == now:
            self.timeline[-1] = (now, self.size)
        else:
            self.timeline.append((now, self.size))

    def launch(self, count: int,
               market: str = MARKET_ON_DEMAND) -> List[_Member]:
        """Grow the fleet by ``count`` instances bought from ``market``.

        Workers start under the caller's span, so a phase launches its
        fleet from inside its own driver.
        """
        added: List[_Member] = []
        for _ in range(count):
            instance = self._cloud.ec2.launch(self._instance_type)
            worker = self._factory(instance)
            proc = self._cloud.env.process(
                worker.run(),
                name="{}-{}".format(self._name, len(self.launched) + 1))
            member = _Member(instance=instance, worker=worker, proc=proc,
                             market=market)
            self.members.append(member)
            self.launched.append(member)
            added.append(member)
            if market == MARKET_SPOT and self.spot_market is not None:
                self.spot_market.watch(member)
        self._mark()
        return added

    def crash(self, member: _Member) -> bool:
        """Kill one running member mid-task (the §3 failure): its
        instance dies, billed until now, and its process is interrupted
        with :class:`~repro.errors.InstanceCrashed`, so its leases lapse
        into SQS redelivery.  Returns whether the member was crashed."""
        if not (member.proc.is_alive and member.instance.running):
            return False
        self.members.remove(member)
        self._cloud.ec2.crash(member.instance)
        member.proc.interrupt(InstanceCrashed(member.instance.instance_id))
        self._mark()
        return True

    def crash_later(self, after_s: float, victim: Optional[int] = None,
                    replace: bool = False) -> Any:
        """Schedule crashes ``after_s`` simulated seconds from now.

        ``victim`` indexes the members launched so far; ``None`` crashes
        every member still running then.  With ``replace`` a fresh
        launch replaces each crashed member.  Returns the scheduling
        process; its value is how many members it crashed.
        """
        targets = self.launched[victim:victim + 1] if victim is not None \
            else None

        def crasher() -> Generator[Any, Any, int]:
            yield self._cloud.env.timeout(after_s)
            crashed = 0
            for member in (list(self.members) if targets is None
                           else targets):
                if self.crash(member):
                    crashed += 1
                    if replace:
                        self.launch(1)
            return crashed

        return self._cloud.env.process(
            crasher(), name="{}-crash".format(self._name))

    def retire(self, member: _Member) -> None:
        """Remove one member: interrupt its process, stop its instance.

        An idle member is blocked in ``receive`` and holds no message
        (the kernel's Store skips dead getters, so nothing is lost); a
        busy member's lease lapses and SQS redelivers its query.
        """
        if member.worker.busy:
            self.retired_busy_total += 1
        self.members.remove(member)
        if member.proc.is_alive:
            member.proc.interrupt(
                InstanceRetired(member.instance.instance_id))
        if member.instance.running:
            self._cloud.ec2.stop(member.instance)
        self.retired_total += 1
        self._mark()

    def drain(self, queue: str) -> Generator[Any, Any, None]:
        """Wait until ``queue`` holds no message, visible or in flight,
        or no member runs to take one.  A crashed worker's messages sit
        in flight until their leases lapse: pills sent earlier would
        stop the fleet with work outstanding."""
        sqs = self._cloud.sqs
        while (self._live() and sqs.approximate_depth(queue)
               + sqs.in_flight_count(queue) > 0):
            yield self._cloud.env.timeout(DRAIN_POLL_INTERVAL_S)

    def stop(self, queue: str, outliving: Sequence[Any] = (),
             ) -> Generator[Any, Any, None]:
        """Send a pill per live member on ``queue``, join every member
        ever launched (a crashed or retired one raises its interruption;
        a replacement launched meanwhile is joined too), then the
        ``outliving`` processes of the same run, which keep the fleet
        billed until they end; then stop this fleet's instances — never
        another fleet's on the same cloud."""
        for _ in range(self._live()):
            yield from self._cloud.resilient.sqs.send(queue, StopWorker())
        index = 0
        while index < len(self.launched):
            try:
                yield self.launched[index].proc
            except (InstanceCrashed, InstanceRetired):
                pass
            index += 1
        for proc in outliving:
            yield proc
        for member in self.launched:
            if member.instance.running:
                self._cloud.ec2.stop(member.instance)

    def uptime_hours(self, market: Optional[str] = None) -> float:
        """Fractional instance-hours over every member that ever ran
        (crashed and retired ones until they left), or over those bought
        from ``market``: exactly what §7's ``VM$h`` multiplies."""
        return sum(member.instance.uptime_hours for member in self.launched
                   if market is None or member.market == market)
