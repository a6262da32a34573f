"""Asynchronous cross-region replication of the index manifest.

A :class:`ReplicatedManifest` is the warehouse's answer to a region
outage: a background process that periodically snapshots the primary
region's manifest table — the committed epoch records and the live
delta chains — and, one configured replication lag later, applies the
snapshot to a *secondary* region, physical index tables included.

The cost and staleness model follows the provider asymmetry of real
cross-region replication:

- **Snapshot reads are meter-free.**  The provider ships its own
  replication stream; the client is not issuing billable ``get``
  requests against the primary (the simulation reads the table
  in-memory, like a console scan).
- **Secondary writes are billed.**  Every manifest item put and every
  copied index row is a normal DynamoDB write in the secondary region,
  metered on the shared meter — resilience has a request bill, and it
  ties out like everything else.
- **Immutable tables are copied once.**  Epoch and delta tables never
  change after publication, so each physical table crosses the wire a
  single time; only the (tiny) manifest head items are re-shipped when
  they change.
- **Staleness is snapshot age.**  ``staleness(now)`` is the time since
  the snapshot instant of the last *applied* ship — what the failover
  controller compares against its staleness bound before serving from
  the replica.

While the primary region is blacked out the replicator idles (there is
nothing to snapshot a stream from), which is exactly why failover is
bounded-staleness rather than lossless.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Generator, List, Optional, Set

from repro.cloud.dynamodb import BATCH_PUT_LIMIT, DynamoItem
from repro.consistency.manifest import (LIVE_SUFFIX, MANIFEST_TABLE,
                                        PENDING_SUFFIX, EpochRecord,
                                        LiveHead, decode_values)
from repro.errors import ProcessInterrupted
from repro.store.sharding import SHARD_SEPARATOR

__all__ = ["ReplicatedManifest"]

#: How often the replicator ships the manifest head (simulated seconds).
REPLICATION_INTERVAL_S = 5.0

#: Transit delay before a shipped head applies remotely.
REPLICATION_LAG_S = 2.0


class ReplicatedManifest:
    """Ships the primary manifest (and its tables) to a secondary region.

    ``run()`` is a simulated process: every
    :data:`REPLICATION_INTERVAL_S` it snapshots the primary manifest,
    waits :data:`REPLICATION_LAG_S` (the replication lag), then applies
    the snapshot to the secondary region.  Both providers must share
    one environment and meter.
    """

    def __init__(self, primary: Any, secondary: Any) -> None:
        self._primary = primary
        self._secondary = secondary
        #: Physical index tables fully copied to the secondary region.
        self.replicated_tables: Set[str] = set()
        #: Completed ships (snapshot → applied), heartbeats included.
        self.ships = 0
        #: Ships that actually wrote manifest items or copied tables.
        self.applied = 0
        #: Snapshot instant of the last applied ship (None = never).
        self.applied_at: Optional[float] = None
        #: Live-head version per index name, as of the last ship.
        self.applied_versions: Dict[str, int] = {}
        self._last_digest: Optional[str] = None

    # -- staleness ---------------------------------------------------------

    def staleness(self, now: float) -> float:
        """Age of the replica: ``now`` minus the last applied snapshot.

        ``inf`` until the first ship lands — a replica that never
        converged can never satisfy a bounded-staleness failover.
        """
        if self.applied_at is None:
            return float("inf")
        return now - self.applied_at

    # -- the replication loop ----------------------------------------------

    def run(self) -> Generator[Any, Any, None]:
        """Replicate forever; the serving driver interrupts at the end."""
        env = self._primary.env
        try:
            while True:
                yield env.timeout(REPLICATION_INTERVAL_S)
                if not self._primary.dynamodb.available:
                    continue  # the stream source is blacked out
                yield from self.replicate_once()
        except ProcessInterrupted:
            return

    def replicate_once(self) -> Generator[Any, Any, bool]:
        """One ship: snapshot, wait out the lag, apply.

        Returns whether anything was written (False for heartbeats and
        for cycles where the primary has no manifest yet).
        """
        primary_db = self._primary.dynamodb
        if MANIFEST_TABLE not in primary_db.table_names():
            return False
        env = self._primary.env
        items = primary_db.table(MANIFEST_TABLE).all_items()
        digest = self._digest(items)
        tables = self._referenced_tables(items)
        missing = [t for t in tables if t not in self.replicated_tables]
        snapshot_at = env.now
        versions = self._head_versions(items)

        yield env.timeout(REPLICATION_LAG_S)

        changed = bool(missing) or digest != self._last_digest
        if changed:
            yield from self._apply(items, missing)
            self.applied += 1
        self.ships += 1
        self.applied_at = snapshot_at
        self.applied_versions = versions
        self._last_digest = digest

        self._primary.telemetry.counter(
            "replication_ships_total",
            "Manifest replication cycles applied.",
            ("outcome",)).inc(outcome="applied" if changed else "heartbeat")
        return changed

    def _apply(self, items: List[DynamoItem],
               missing: List[str]) -> Generator[Any, Any, None]:
        """Write one snapshot into the secondary region (billed)."""
        primary_db = self._primary.dynamodb
        secondary_db = self._secondary.resilient.dynamodb
        admin = self._secondary.dynamodb
        with self._primary.telemetry.span("replicate-manifest",
                                          items=len(items),
                                          tables=len(missing)):
            for name in missing:
                source = primary_db.table(name)
                if name not in admin.table_names():
                    admin.create_table(
                        name, has_range_key=source.has_range_key)
                rows = source.all_items()
                for start in range(0, len(rows), BATCH_PUT_LIMIT):
                    chunk = rows[start:start + BATCH_PUT_LIMIT]
                    yield from secondary_db.batch_put(name, chunk)
                self.replicated_tables.add(name)
            if MANIFEST_TABLE not in admin.table_names():
                admin.create_table(MANIFEST_TABLE, has_range_key=False)
            for item in items:
                yield from secondary_db.put(MANIFEST_TABLE, item)

    # -- snapshot inspection -----------------------------------------------

    @staticmethod
    def _digest(items: List[DynamoItem]) -> str:
        """Deterministic signature of a manifest snapshot; a value that
        does not decode raises :class:`~repro.errors.IntegrityError`
        naming its record."""
        return json.dumps(
            [[item.hash_key,
              {attr: decode_values(item.hash_key, values)
               for attr, values in sorted(item.attributes.items())}]
             for item in items], sort_keys=True)

    def _head_versions(self, items: List[DynamoItem]) -> Dict[str, int]:
        versions: Dict[str, int] = {}
        for item in items:
            if item.hash_key.endswith(LIVE_SUFFIX):
                name = item.hash_key[:-len(LIVE_SUFFIX)]
                versions[name] = LiveHead.from_item(name, item).version
        return versions

    def _referenced_tables(self, items: List[DynamoItem]) -> List[str]:
        """Physical tables the snapshot's records point at, shards
        expanded against the primary's live table set."""
        bases: Set[str] = set()
        for item in items:
            name = item.hash_key
            if name.endswith(LIVE_SUFFIX):
                head = LiveHead.from_item(name[:-len(LIVE_SUFFIX)], item)
                for delta in head.deltas:
                    bases.update(delta.tables.values())
                continue
            if name.endswith(PENDING_SUFFIX):
                continue  # uncommitted builds are not served, not shipped
            record = EpochRecord.from_item(name, item)
            bases.update(record.tables.values())
        expanded: Set[str] = set()
        for table in self._primary.dynamodb.table_names():
            for base in bases:
                if table == base or table.startswith(
                        base + SHARD_SEPARATOR):
                    expanded.add(table)
                    break
        return sorted(expanded)
