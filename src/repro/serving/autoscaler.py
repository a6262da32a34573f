"""The query-fleet autoscaler.

The paper's core economic observation — instance count trades time for
(roughly) constant cost — only pays off continuously if something
*changes* the instance count as load changes.  The :class:`Autoscaler`
is that something: a tick-driven policy loop over two queue signals
(visible backlog per worker, age of the oldest waiting message) that
launches and retires EC2 instances inside a :class:`Fleet` (the one
fleet lifecycle, :mod:`repro.warehouse.fleet`, re-exported here).

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

from typing import Any, Optional

from repro.errors import ConfigError, ProcessInterrupted
from repro.serving.policy import AutoscalePolicy, SpotPolicy
from repro.warehouse.fleet import MARKET_ON_DEMAND, MARKET_SPOT, Fleet
from repro.warehouse.messages import QUERY_QUEUE

__all__ = ["Fleet", "Autoscaler", "MARKET_ON_DEMAND", "MARKET_SPOT"]

#: Policy evaluation period (simulated seconds).
AUTOSCALE_TICK_S = 5.0

#: Scale out when visible backlog per worker exceeds this ...
SCALE_OUT_DEPTH = 4.0

#: ... or when the oldest visible message has waited longer than this
#: (the latency-SLO guard: depth alone misses a slow trickle).
MAX_QUEUE_AGE_S = 30.0

#: Instances added per scale-out decision.
SCALE_OUT_STEP = 1

#: Consecutive idle ticks (an empty queue and an idle candidate worker)
#: before one instance is retired.
SCALE_IN_IDLE_TICKS = 3

#: Minimum simulated seconds between scaling actions, in either
#: direction — the standard guard against flapping.
COOLDOWN_S = 15.0

#: Observed interruptions per spot VM-hour above which scale-out stops
#: buying spot.
MAX_SPOT_INTERRUPTION_RATE = 2.0


class Autoscaler:
    """Tick-driven scaling loop over a :class:`Fleet`.

    Runs as its own simulated process; the serving runtime interrupts
    it when the workload completes.
    """

    def __init__(self, cloud: Any, policy: AutoscalePolicy, fleet: Fleet,
                 spot: Optional[SpotPolicy] = None) -> None:
        self._cloud = cloud
        self.policy = policy
        self.fleet = fleet
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
        (c) the market's *observed* interruption rate stays under
        :data:`MAX_SPOT_INTERRUPTION_RATE`.  Anything else — no policy,
        no discount, storm in progress, share already met — buys
        on-demand.
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
                                   > MAX_SPOT_INTERRUPTION_RATE):
            return MARKET_ON_DEMAND
        if fleet.spot_size < spot.spot_fraction * (fleet.size + 1):
            return MARKET_SPOT
        return MARKET_ON_DEMAND

    def run(self):
        """The scaling process: one evaluation per tick until interrupted."""
        env = self._cloud.env
        try:
            while True:
                yield env.timeout(AUTOSCALE_TICK_S)
                self.evaluate()
        except ProcessInterrupted:
            return

    def evaluate(self) -> None:
        """One policy evaluation against the current queue signals."""
        policy = self.policy
        cloud = self._cloud
        now = cloud.env.now
        depth = cloud.sqs.approximate_depth(QUERY_QUEUE)
        age = cloud.sqs.oldest_message_age(QUERY_QUEUE)
        size = self.fleet.size
        cooling = now - self._last_action_at < COOLDOWN_S
        hub = cloud.telemetry
        hub.gauge("serving_fleet_size",
                  "Query-processor fleet size.").set(size)
        hub.gauge("serving_queue_depth",
                  "Visible query-queue backlog.").set(depth)

        pressed = (depth / max(size, 1) > SCALE_OUT_DEPTH
                   or age > MAX_QUEUE_AGE_S)
        if pressed:
            self._idle_ticks = 0
            if size < policy.max_workers and not cooling:
                step = min(SCALE_OUT_STEP, policy.max_workers - size)
                for _ in range(step):
                    self.fleet.launch(1, market=self.scale_out_market())
                self.scale_outs += 1
                self._last_action_at = now
            return

        busy = any(m.worker.busy for m in self.fleet.members)
        in_flight = cloud.sqs.in_flight_count(QUERY_QUEUE)
        idle = depth == 0 and (not policy.drain
                               or (in_flight == 0 and not busy))
        if not idle:
            self._idle_ticks = 0
            return
        self._idle_ticks += 1
        if (size > policy.min_workers
                and self._idle_ticks >= SCALE_IN_IDLE_TICKS
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
