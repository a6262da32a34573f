"""The spot capacity market: cheap instances that get reclaimed.

Spot capacity is the paper's cost lever pushed one step further: the
same instance at ~30% of the on-demand price (``vm_hour_spot`` in the
price books), bought with the understanding that the provider may take
it back.  The :class:`SpotMarket` simulates that reclamation: every
spot member of the fleet draws a seeded interruption instant from the
fault plan's :class:`~repro.faults.SpotSpec` regimes, receives a
two-minute-warning :class:`InterruptionNotice` when it fires, and is
then *drained* (the worker finishes the query it holds and exits — no
lease is ever abandoned) or, if the query outlasts the warning,
*reclaimed* (the §3 contract: the process is interrupted, the lease
lapses, SQS redelivers the query to a surviving worker).

The RNG stream is keyed per instance id — ``"{seed}:spot:{id}"`` — and
instance ids are themselves deterministic, so an interruption storm
replays byte-identically at a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence, Tuple

from repro.faults.plan import SpotSpec
from repro.serving.autoscaler import MARKET_SPOT

__all__ = ["InterruptionNotice", "SpotMarket"]


@dataclass(frozen=True)
class InterruptionNotice:
    """The cloud's advance warning that a spot instance will be taken.

    ``deadline`` is ``issued_at`` plus the regime's ``warning_s`` (the
    classic two minutes): the instance survives until then, after which
    it is reclaimed whether or not its worker finished draining.
    """

    instance_id: str
    issued_at: float
    deadline: float


class SpotMarket:
    """Seeded reclamation of the fleet's spot members.

    ``watch(member)`` is called by :class:`~repro.serving.autoscaler.
    Fleet` for every spot launch; the market spawns one watcher process
    per member.  Interruptions are spanned (``spot-interruption``) and
    counted on the registry, but meter no requests — they move work
    around, so their cost shows up only as redelivered SQS traffic and
    extra uptime, both of which the estimator already prices.
    """

    def __init__(self, cloud: Any, fleet: Any,
                 specs: Sequence[SpotSpec], seed: int) -> None:
        self._cloud = cloud
        self._fleet = fleet
        self._specs = list(specs)
        self._seed = seed
        #: Every notice issued, in issue order.
        self.notices: List[InterruptionNotice] = []
        self.interrupted_total = 0
        #: Notices whose worker finished its query inside the warning.
        self.drained_total = 0
        #: Notices that ended in a forced mid-query reclaim.
        self.reclaimed_total = 0

    # -- observed market state --------------------------------------------

    def observed_rate(self) -> float:
        """Interruptions per spot VM-hour seen so far.

        The signal the price-aware autoscaler compares against
        :data:`~repro.serving.autoscaler.MAX_SPOT_INTERRUPTION_RATE`:
        during a storm the
        observed rate spikes and scale-out falls back to on-demand.
        """
        hours = self._fleet.uptime_hours(MARKET_SPOT)
        if hours <= 0:
            return 0.0
        return self.interrupted_total / hours

    # -- watcher ----------------------------------------------------------

    def _draw(self, instance_id: str,
              now: float) -> Optional[Tuple[float, float]]:
        """The member's interruption ``(instant, warning_s)``, if any.

        One exponential draw per regime, in plan order, from the
        member's private RNG stream; the earliest instant wins.
        """
        rng = random.Random("{}:spot:{}".format(self._seed, instance_id))
        best: Optional[Tuple[float, float]] = None
        for spec in self._specs:
            if spec.rate <= 0:
                continue
            instant = now + rng.expovariate(spec.rate / 3600.0)
            if best is None or instant < best[0]:
                best = (instant, spec.warning_s)
        return best

    def watch(self, member: Any) -> None:
        """Start the seeded interruption watcher for one spot member."""
        self._cloud.env.process(
            self._watch(member),
            name="spot-watch-{}".format(member.instance.instance_id))

    def _watch(self, member: Any) -> Generator[Any, Any, None]:
        env = self._cloud.env
        drawn = self._draw(member.instance.instance_id, env.now)
        if drawn is None:
            return
        instant, warning_s = drawn
        yield env.timeout(instant - env.now)
        if member not in self._fleet.members or not member.proc.is_alive:
            return  # already retired by scale-in
        notice = InterruptionNotice(
            instance_id=member.instance.instance_id,
            issued_at=env.now, deadline=env.now + warning_s)
        self.notices.append(notice)
        self.interrupted_total += 1
        hub = self._cloud.telemetry
        with hub.span("spot-interruption", instance=notice.instance_id,
                      deadline=notice.deadline):
            pass
        hub.counter("spot_interruptions_total",
                    "Spot interruption notices issued.").inc()
        worker = member.worker
        worker.request_drain(notice)
        if not worker.busy:
            # Idle at notice time: nothing to drain, retire on the spot.
            self._finish(member, reclaimed=False)
            return
        yield env.timeout(warning_s)
        if member not in self._fleet.members:
            return  # scale-in beat the deadline to it
        self._finish(member,
                     reclaimed=member.proc.is_alive and worker.busy)

    def _finish(self, member: Any, reclaimed: bool) -> None:
        if reclaimed:
            self.reclaimed_total += 1
        else:
            self.drained_total += 1
        self._cloud.telemetry.counter(
            "spot_reclaims_total",
            "Spot interruptions by outcome.", ("outcome",)).inc(
                outcome="reclaimed" if reclaimed else "drained")
        self._fleet.retire(member)
