"""Multi-region failover: the region switch and its controller.

Two small pieces turn the replicated manifest into availability:

- a :class:`RegionSwitch` stands where the serving index store expects
  a DynamoDB facade and delegates every call to the currently active
  region.  While flipped to the secondary it counts each index read as
  a *stale read* (the replica is bounded-staleness, never
  authoritative) and remembers which tables were read so failback can
  invalidate exactly those from the shared cache;
- a :class:`FailoverController` schedules the fault plan's
  :class:`~repro.faults.OutageSpec` blackouts against the primary
  store, probes replica staleness every :data:`PROBE_INTERVAL_S` while
  the primary is down, flips the switch when the replica is at most
  :data:`MAX_STALENESS_S` behind (refusing — and leaving queries to
  the retry/degrade ladder — when it is not), and flips back when the
  primary returns.

Failback re-convergence is trivial by construction: the primary's
manifest head never moved (an unreachable region accepts no writes),
so restoring it authoritative only requires dropping cache entries
that may have been filled from replica reads — entries for exactly the
tables the switch observed, nothing else.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Set, Tuple

from repro.errors import ProcessInterrupted
from repro.faults.plan import OutageSpec
from repro.store.sharding import SHARD_SEPARATOR

__all__ = ["RegionSwitch", "FailoverController", "PRIMARY", "SECONDARY"]

PRIMARY = "primary"
SECONDARY = "secondary"

#: How often the controller probes primary health during an outage
#: (and, once failed over, for recovery), in simulated seconds.
PROBE_INTERVAL_S = 1.0

#: Upper bound on replica staleness for a failover to proceed; beyond
#: it the controller refuses to flip and serving rides the degradation
#: ladder instead.
MAX_STALENESS_S = 60.0

#: Store calls that count as (potentially stale) index reads when the
#: switch is flipped to the replica.
_READ_OPS = frozenset({"get", "batch_get", "scan"})


class RegionSwitch:
    """A DynamoDB facade that delegates to the active region's store.

    Built over the two regions' *resilient* facades, so retries keep
    working on whichever side is live.  Everything not explicitly
    defined here — ``get``, ``batch_get``, ``put``, ``table_names`` —
    is delegated via ``__getattr__``, keeping the switch transparent
    to :class:`~repro.indexing.mapper.DynamoIndexStore`.
    """

    def __init__(self, primary: Any, secondary: Any,
                 telemetry: Any) -> None:
        self._regions = {PRIMARY: primary, SECONDARY: secondary}
        self.active = PRIMARY
        self._telemetry = telemetry
        #: Index reads served by the replica since the last failover.
        self.stale_reads = 0
        #: Physical tables read through the replica since the last
        #: failover — the exact failback cache-invalidation set.
        self.tables_read: Set[str] = set()

    def flip(self, region: str) -> None:
        """Make ``region`` ("primary"/"secondary") the active store."""
        self._regions[region]  # KeyError on unknown region names
        self.active = region

    def __getattr__(self, name: str) -> Any:
        target = getattr(self._regions[self.active], name)
        if self.active == SECONDARY and name in _READ_OPS:
            def counted(table_name: str, *args: Any, **kwargs: Any) -> Any:
                self.stale_reads += 1
                self.tables_read.add(table_name)
                self._telemetry.counter(
                    "stale_reads_total",
                    "Index reads served by the replica region.").inc()
                return target(table_name, *args, **kwargs)
            return counted
        return target


class FailoverController:
    """Drives region outages, bounded-staleness failover and failback.

    ``switch`` and ``replicator`` may be ``None`` (an outage chaos plan
    without a failover deployment): the blackout still happens, no flip
    is possible, and queries ride the worker retry loop / degradation
    ladder until the region returns.
    """

    def __init__(self, cloud: Any, outages: Sequence[OutageSpec],
                 switch: Optional[RegionSwitch] = None,
                 replicator: Optional[Any] = None,
                 cache: Optional[Any] = None) -> None:
        self._cloud = cloud
        self._outages = sorted(outages, key=lambda spec: spec.after_s)
        self._switch = switch
        self._replicator = replicator
        self._cache = cache
        self.failed_over = False
        self.region_outages = 0
        self.failovers = 0
        self.failbacks = 0
        #: Probes that found the primary down but the replica too stale.
        self.refusals = 0
        #: Cache entries dropped across every failback.
        self.invalidated_entries = 0
        #: ``(started_at, ended_at)`` per outage, absolute simulated
        #: times; the report rebases them onto the serve clock.
        self.outage_log: List[Tuple[float, float]] = []
        self._outage_started: Optional[float] = None

    # -- the control loop --------------------------------------------------

    def run(self) -> Generator[Any, Any, None]:
        """Play every scheduled outage; restores state if interrupted."""
        env = self._cloud.env
        start_at = env.now
        try:
            for spec in self._outages:
                at = start_at + spec.after_s
                if at > env.now:
                    yield env.timeout(at - env.now)
                yield from self._outage(spec)
        except ProcessInterrupted:
            self._restore()
            return

    def _outage(self, spec: OutageSpec) -> Generator[Any, Any, None]:
        env = self._cloud.env
        primary_db = self._cloud.dynamodb
        started_at = env.now
        self._outage_started = started_at
        primary_db.set_available(False)
        self.region_outages += 1
        self._count("region_outages_total")
        with self._cloud.telemetry.span("region-outage", region=PRIMARY,
                                        duration_s=spec.duration_s):
            pass
        end_at = started_at + spec.duration_s
        while env.now < end_at:
            self._probe(env.now)
            yield env.timeout(min(PROBE_INTERVAL_S, end_at - env.now))
        primary_db.set_available(True)
        self.outage_log.append((started_at, env.now))
        self._outage_started = None
        if self.failed_over:
            self._failback()

    def _probe(self, now: float) -> None:
        if self.failed_over or self._switch is None:
            return
        staleness = (self._replicator.staleness(now)
                     if self._replicator is not None else float("inf"))
        if staleness <= MAX_STALENESS_S:
            self._failover(staleness)
        else:
            self.refusals += 1
            self._count("failover_refusals_total")

    def _failover(self, staleness: float) -> None:
        switch = self._switch
        switch.tables_read = set()
        switch.flip(SECONDARY)
        self.failed_over = True
        self.failovers += 1
        self._count("failovers_total")
        with self._cloud.telemetry.span(
                "failover", staleness_s=staleness,
                ships=(self._replicator.ships
                       if self._replicator is not None else 0)):
            pass

    def _failback(self) -> None:
        switch = self._switch
        switch.flip(PRIMARY)
        self.failed_over = False
        self.failbacks += 1
        self._count("failbacks_total")
        # Replica reads went through sharded physical names; the shared
        # cache keys on the unsharded name, so invalidate both forms —
        # exactly the tables the replica served, nothing else.
        tainted: Set[str] = set()
        for table in switch.tables_read:
            tainted.add(table)
            tainted.add(table.split(SHARD_SEPARATOR, 1)[0])
        dropped = 0
        if self._cache is not None and tainted:
            dropped = self._cache.invalidate_tables(sorted(tainted))
        self.invalidated_entries += dropped
        with self._cloud.telemetry.span("failback",
                                        stale_reads=switch.stale_reads,
                                        tables=len(switch.tables_read),
                                        cache_dropped=dropped):
            pass
        switch.tables_read = set()

    def _restore(self) -> None:
        """End-of-run safety: never leave a region dark or flipped."""
        if not self._cloud.dynamodb.available:
            self._cloud.dynamodb.set_available(True)
            self.outage_log.append((self._outage_started or 0.0,
                                    self._cloud.env.now))
            self._outage_started = None
        if self.failed_over:
            self._failback()

    def _count(self, name: str) -> None:
        self._cloud.telemetry.counter(
            name, "Failover controller events.").inc()
