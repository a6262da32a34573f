"""The query-fleet autoscaler and its fleet bookkeeping.

The paper's core economic observation — instance count trades time for
(roughly) constant cost — only pays off continuously if something
*changes* the instance count as load changes.  The :class:`Autoscaler`
is that something: a tick-driven policy loop over two queue signals
(visible backlog per worker, age of the oldest waiting message) that
launches and retires EC2 instances inside a :class:`Fleet`.

Retirement reuses the §3 fault-tolerance contract instead of inventing
a hand-off protocol: the worker's process is interrupted with
:class:`~repro.errors.InstanceRetired`, any lease it held simply
lapses, and SQS redelivers the message to a surviving worker.  With
``policy.drain`` (the default) only idle workers are retired, so the
lease path is never exercised by scale-in; with ``drain=False`` a busy
worker may be reclaimed mid-query — the spot-instance scenario the
at-least-once tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, InstanceRetired, ProcessInterrupted
from repro.serving.policy import AutoscalePolicy, SpotPolicy
from repro.warehouse.messages import QUERY_QUEUE

__all__ = ["Fleet", "Autoscaler", "MARKET_ON_DEMAND", "MARKET_SPOT"]

#: Capacity markets a fleet member may be bought from.
MARKET_ON_DEMAND = "on-demand"
MARKET_SPOT = "spot"


@dataclass
class _Member:
    """One fleet slot: instance + worker + the worker's process."""

    instance: Any
    worker: Any
    proc: Any
    market: str = MARKET_ON_DEMAND


class Fleet:
    """Live query-processor fleet: launch, retire, timeline.

    ``worker_factory(instance)`` builds a worker object exposing
    ``run()`` (the process generator) and a ``busy`` flag; the fleet
    stays agnostic of the worker's actual type.
    """

    def __init__(self, cloud: Any, instance_type: str,
                 worker_factory: Callable[[Any], Any],
                 spot_market: Optional[Any] = None) -> None:
        self._cloud = cloud
        self._instance_type = instance_type
        self._factory = worker_factory
        #: Optional :class:`~repro.serving.spot.SpotMarket` watching
        #: spot members for seeded interruptions.
        self.spot_market = spot_market
        self.members: List[_Member] = []
        #: Every instance the fleet ever launched, in launch order
        #: (retired ones included — their uptime is still billed).
        self.instances_ever: List[Any] = []
        #: Market each instance was bought from, by instance id.
        self.markets: Dict[str, str] = {}
        #: Every size change as ``(simulated time, new size)``.
        self.timeline: List[Tuple[float, int]] = []
        self.launched_total = 0
        self.retired_total = 0
        self.retired_busy_total = 0
        self._serial = 0

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

    def _mark(self) -> None:
        now = self._cloud.env.now
        if self.timeline and self.timeline[-1][0] == now:
            self.timeline[-1] = (now, self.size)
        else:
            self.timeline.append((now, self.size))

    def launch(self, count: int,
               market: str = MARKET_ON_DEMAND) -> List[_Member]:
        """Grow the fleet by ``count`` instances bought from ``market``."""
        added: List[_Member] = []
        for _ in range(count):
            self._serial += 1
            instance = self._cloud.ec2.launch(self._instance_type)
            self.instances_ever.append(instance)
            self.markets[instance.instance_id] = market
            worker = self._factory(instance)
            proc = self._cloud.env.process(
                worker.run(), name="serve-worker-{}".format(self._serial))
            member = _Member(instance=instance, worker=worker, proc=proc,
                             market=market)
            self.members.append(member)
            added.append(member)
            if market == MARKET_SPOT and self.spot_market is not None:
                self.spot_market.watch(member)
        self.launched_total += count
        self._mark()
        return added

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

    def uptime_hours(self, market: Optional[str] = None) -> float:
        """Fractional instance-hours over every member that ever ran.

        Retired members are included (their clocks stopped at
        retirement), so this is exactly what §7's ``VM$h`` multiplies.
        With ``market`` the sum covers only instances bought from that
        market — spot hours are billed at the book's spot price.
        """
        if market is None:
            return sum(i.uptime_hours for i in self.instances_ever)
        return sum(i.uptime_hours for i in self.instances_ever
                   if self.markets.get(i.instance_id,
                                       MARKET_ON_DEMAND) == market)


class Autoscaler:
    """Tick-driven scaling loop over a :class:`Fleet`.

    Runs as its own simulated process; the serving runtime interrupts
    it when the workload completes.
    """

    def __init__(self, cloud: Any, policy: AutoscalePolicy, fleet: Fleet,
                 queue_name: str = QUERY_QUEUE,
                 spot: Optional[SpotPolicy] = None) -> None:
        self._cloud = cloud
        self.policy = policy
        self.fleet = fleet
        self._queue_name = queue_name
        self.spot = spot
        self.scale_outs = 0
        self.scale_ins = 0
        self._idle_ticks = 0
        self._last_action_at = float("-inf")

    def scale_out_market(self) -> str:
        """Which market the next scale-out instance is bought from.

        The price-aware decision: buy spot while (a) a spot policy is
        set and the book actually discounts the instance type, (b) the
        fleet's spot share is below the policy's target fraction, and
        (c) the market's *observed* interruption rate stays under the
        policy bound.  Anything else — no policy, no discount, storm in
        progress, share already met — buys on-demand.
        """
        spot = self.spot
        if spot is None or spot.spot_fraction <= 0:
            return MARKET_ON_DEMAND
        fleet = self.fleet
        book = self._cloud.price_book
        try:
            discount = (book.vm_hourly_spot(fleet.instance_type)
                        < book.vm_hourly(fleet.instance_type))
        except ConfigError:
            discount = False
        if not discount:
            return MARKET_ON_DEMAND
        market = fleet.spot_market
        if market is not None and (market.observed_rate()
                                   > spot.max_interruption_rate):
            return MARKET_ON_DEMAND
        if fleet.spot_size < spot.spot_fraction * (fleet.size + 1):
            return MARKET_SPOT
        return MARKET_ON_DEMAND

    def run(self):
        """The scaling process: one evaluation per tick until interrupted."""
        env = self._cloud.env
        try:
            while True:
                yield env.timeout(self.policy.tick_s)
                self.evaluate()
        except ProcessInterrupted:
            return

    def evaluate(self) -> None:
        """One policy evaluation against the current queue signals."""
        policy = self.policy
        cloud = self._cloud
        now = cloud.env.now
        depth = cloud.sqs.approximate_depth(self._queue_name)
        age = cloud.sqs.oldest_message_age(self._queue_name)
        size = self.fleet.size
        cooling = now - self._last_action_at < policy.cooldown_s
        hub = cloud.telemetry
        hub.gauge("serving_fleet_size",
                  "Query-processor fleet size.").set(size)
        hub.gauge("serving_queue_depth",
                  "Visible query-queue backlog.").set(depth)

        pressed = (depth / max(size, 1) > policy.scale_out_depth
                   or age > policy.max_queue_age_s)
        if pressed:
            self._idle_ticks = 0
            if size < policy.max_workers and not cooling:
                step = min(policy.scale_out_step,
                           policy.max_workers - size)
                for _ in range(step):
                    self.fleet.launch(1, market=self.scale_out_market())
                self.scale_outs += 1
                self._last_action_at = now
            return

        busy = any(m.worker.busy for m in self.fleet.members)
        in_flight = cloud.sqs.in_flight_count(self._queue_name)
        idle = depth == 0 and (not policy.drain
                               or (in_flight == 0 and not busy))
        if not idle:
            self._idle_ticks = 0
            return
        self._idle_ticks += 1
        if (size > policy.min_workers
                and self._idle_ticks >= policy.scale_in_idle_ticks
                and not cooling):
            # Prefer an idle victim even when drain is disabled — a
            # busy worker is reclaimed only as a last resort, and its
            # lease then lapses into SQS redelivery (at-least-once).
            candidates = self.fleet.idle_members()
            if not candidates and not policy.drain:
                candidates = list(self.fleet.members)
            if candidates:
                self.fleet.retire(candidates[-1])
                self.scale_ins += 1
                self._last_action_at = now
                self._idle_ticks = 0
