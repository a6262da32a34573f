"""Weighted deficit-round-robin queueing for the serving front door.

Plain FIFO admission lets a bursty tenant park a wall of requests in
front of everyone else's: the queue drains in arrival order, so an
in-quota tenant's p95 tracks the noisy neighbour's backlog.  Deficit
round robin (Shreedhar & Varghese) fixes this with O(1) per-item work:
each tenant keeps a private lane and a deficit counter; a round visits
lanes in a fixed ring order, tops the counter up by ``quantum x
weight`` when the lane has work, and serves requests while the counter
covers their unit cost.  Long-run service share converges to the
weight ratio, and an empty lane donates its turn instantly — the
scheduler is work-conserving, never idling while any lane has work.

The queue is pure data structure — no simulation imports — so the
hypothesis property suite can drive it with thousands of arrival
patterns directly, and the serving runtime can wrap it in a dispatcher
process without entangling the two.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["FairShareQueue"]


#: The deficit top-up a weight-1.0 lane earns per round.  With unit
#: item costs any positive value preserves the share ratios.
QUANTUM = 1.0


class FairShareQueue:
    """Weighted DRR over per-tenant lanes with unit-cost items.

    ``weights`` maps each tenant to its positive fair-share weight;
    pushes for unknown tenants join at weight 1.0 (arrivals must never
    be lost to a configuration gap).  Each lane earns :data:`QUANTUM`
    x its weight per round.
    """

    def __init__(self, weights: Dict[str, float]) -> None:
        for tenant, weight in weights.items():
            if weight <= 0:
                raise ConfigError(
                    "FairShareQueue weight for {!r} must be > 0, got "
                    "{}".format(tenant, weight))
        self.quantum = QUANTUM
        self._weights = dict(weights)
        self._lanes: Dict[str, deque] = {}
        self._deficits: Dict[str, float] = {}
        self._ring: List[str] = []
        self._cursor = 0
        self.pushed: Dict[str, int] = {}
        self.served: Dict[str, int] = {}

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def backlog(self, tenant: str) -> int:
        """Queued items for one tenant."""
        lane = self._lanes.get(tenant)
        return len(lane) if lane is not None else 0

    def weight(self, tenant: str) -> float:
        """The tenant's scheduling weight (1.0 when never declared)."""
        return self._weights.get(tenant, 1.0)

    def push(self, tenant: str, item: Any) -> None:
        """Append one item to the tenant's lane (FIFO within a lane)."""
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = self._lanes[tenant] = deque()
            self._deficits[tenant] = 0.0
            # Ring order is sorted by name so scheduling is independent
            # of arrival order — two runs with the same lanes visit
            # them identically regardless of who showed up first.
            self._ring = sorted(self._lanes)
            self._cursor = 0
        lane.append(item)
        self.pushed[tenant] = self.pushed.get(tenant, 0) + 1

    def pop(self) -> Optional[Tuple[str, Any]]:
        """The next ``(tenant, item)`` in DRR order, or None when empty.

        Each fresh visit to a non-empty lane earns it ``quantum x
        weight`` of deficit; the lane then serves items at unit cost
        while the deficit covers them.  An exhausted lane forfeits its
        leftover deficit (standard DRR: credit never accrues while a
        lane has nothing to send).
        """
        if not len(self):
            return None
        # Bounded by the rounds a sub-unit quantum needs to reach one
        # unit of deficit on the smallest weight, plus one skip pass.
        min_earn = self.quantum * min(
            self.weight(tenant) for tenant in self._ring)
        rounds = int(1.0 / min_earn) + 2
        for _ in range(rounds * len(self._ring) + 1):
            tenant = self._ring[self._cursor]
            lane = self._lanes[tenant]
            if not lane:
                self._deficits[tenant] = 0.0
                self._cursor = (self._cursor + 1) % len(self._ring)
                continue
            if self._deficits[tenant] < 1.0:
                # Fresh visit this round: earn the lane's quantum.
                self._deficits[tenant] += (
                    self.quantum * self.weight(tenant))
                if self._deficits[tenant] < 1.0:
                    # Sub-unit quantum: carry credit to the next round.
                    self._cursor = (self._cursor + 1) % len(self._ring)
                    continue
            self._deficits[tenant] -= 1.0
            item = lane.popleft()
            self.served[tenant] = self.served.get(tenant, 0) + 1
            if not lane:
                self._deficits[tenant] = 0.0
                self._cursor = (self._cursor + 1) % len(self._ring)
            elif self._deficits[tenant] < 1.0:
                # Turn spent: the next pop starts at the next lane.
                self._cursor = (self._cursor + 1) % len(self._ring)
            return (tenant, item)
        raise AssertionError(
            "FairShareQueue.pop failed to serve a non-empty queue")

    def service_shares(self) -> Dict[str, float]:
        """Each tenant's fraction of total served items so far."""
        total = sum(self.served.values())
        if not total:
            return {}
        return {tenant: count / total
                for tenant, count in self.served.items()}
