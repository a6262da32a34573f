"""Checkpointed, resumable index builds.

A checkpointed build differs from the legacy one-shot build in three
ways that together make it crash-consistent:

- **fixed-composition batches**: the corpus is partitioned into
  :class:`~repro.warehouse.messages.BatchLoadRequest` messages at *plan*
  time (instead of workers batching opportunistically), so a redelivered
  batch always holds exactly the same documents and extracts exactly the
  same entries;
- **content-addressed items**: the index store runs in
  ``range_key_mode="content"``, so rewriting a batch stores byte-for-
  byte identical items under identical primary keys;
- **the batch ledger** (:mod:`~repro.consistency.ledger`) records each
  applied batch before its SQS message is deleted.

``commit`` then scans the finished tables, writes a per-table
*inventory* (key → document URIs) to the S3 meta bucket — the ground
truth the scrubber repairs against — and atomically flips the epoch
manifest.  An interrupted build resumes by purging the loader queue and
re-enqueueing only the batches missing from the ledger; the resumed
index is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping, Optional, Tuple

from repro.cloud.dynamodb import DynamoItem
from repro.cloud.provider import CloudProvider
from repro.errors import BuildStateError
from repro.indexing.base import IndexingStrategy
from repro.indexing.checksums import (META_ATTR_PREFIX, batch_content_hash,
                                      canonical_item_bytes)
from repro.warehouse.messages import LOADER_QUEUE, BatchLoadRequest

#: S3 bucket holding epoch inventories (created on first checkpointed
#: build, so legacy deployments stay physically identical).
META_BUCKET = "index-meta"


def inventory_key(name: str, epoch: int, logical_table: str) -> str:
    """S3 key of one epoch table's inventory object."""
    return "{}/e{}/{}.json".format(name, epoch, logical_table)


def batch_id_for(name: str, epoch: int, index: int) -> str:
    """Deterministic batch identity within one build epoch."""
    return "{}-e{}-b{:05d}".format(name, epoch, index)


def partition_batches(name: str, epoch: int, uris: List[str],
                      batch_size: int) -> List[BatchLoadRequest]:
    """Split the corpus (in corpus order) into fixed loader batches."""
    if batch_size < 1:
        raise BuildStateError("batch_size must be >= 1")
    return [BatchLoadRequest(batch_id=batch_id_for(name, epoch, i),
                             uris=tuple(uris[start:start + batch_size]))
            for i, start in enumerate(range(0, len(uris), batch_size))]


def coverage_of_items(items: List[DynamoItem]) -> Dict[str, List[str]]:
    """Index coverage of a table scan: key → sorted document URIs.

    Bookkeeping attributes are skipped and split-item URI suffixes
    (``uri#chunk``) are folded back onto their base URI, mirroring how
    reads merge items.
    """
    coverage: Dict[str, set] = {}
    for item in items:
        uris = coverage.setdefault(item.hash_key, set())
        for raw_uri in item.attributes:
            if raw_uri.startswith(META_ATTR_PREFIX):
                continue
            uris.add(raw_uri.split("#", 1)[0])
    return {key: sorted(uris) for key, uris in sorted(coverage.items())}


def items_digest(items: List[DynamoItem],
                 written: Optional[Mapping[int, Tuple[DynamoItem, bytes]]]
                 = None) -> str:
    """Content digest of a table's scanned items (order-insensitive
    within the scan's deterministic (hash, range) ordering).  An item
    that *is* the object a form in ``written`` (a store's
    ``take_written``) was built for takes that form; any other — one
    damage replaced, one another pass or store wrote — is serialised."""
    forms = []
    for item in items:
        held = written.get(id(item)) if written else None
        forms.append(held[1] if held is not None and held[0] is item
                     else canonical_item_bytes(item.hash_key,
                                               item.attributes))
    return batch_content_hash(forms)


@dataclass
class BuildPlan:
    """Everything a checkpointed build (or its resume) needs to know."""

    name: str                    # index identity in the manifest
    strategy: IndexingStrategy
    epoch: int
    batch_size: int
    batches: List[BatchLoadRequest]
    table_names: Dict[str, str]  # logical -> physical (epoch-scoped)
    ledger_table: str
    instances: int = 8
    instance_type: str = "l"
    tag: str = ""
    #: Physical shard tables per logical table (routing metadata the
    #: store layer configures; recorded in the epoch manifest).
    shards: int = 1

    @property
    def documents(self) -> int:
        """Documents covered by the plan's batches."""
        return sum(len(batch.uris) for batch in self.batches)

    @property
    def batch_ids(self) -> List[str]:
        """All batch identities, in plan order."""
        return [batch.batch_id for batch in self.batches]


@dataclass
class BuildRunResult:
    """What one (possibly interrupted) run of a plan accomplished."""

    plan: BuildPlan
    interrupted: bool
    enqueued: int
    applied_batches: int
    skipped_batches: int = 0
    committed: bool = False
    worker_stats: List[Any] = field(default_factory=list)
    #: The (content-addressed) index store the run wrote through; a
    #: completed build wraps it into a ``BuiltIndex``.
    store: Any = None
    #: The run's own ``PhaseRecord``: the tag, fleet shape and VM-hours
    #: its build report carries, whatever phases run afterwards.
    phase: Any = None

    @property
    def complete(self) -> bool:
        """Whether every planned batch is in the ledger."""
        return self.applied_batches >= len(self.plan.batches)


class BuildCoordinator:
    """Drives one plan through prepare → enqueue → (run) → commit.

    The worker fleet itself is launched by the warehouse (it owns EC2
    and the metering tags); the coordinator owns everything that must
    survive a crash: tables, ledger, manifest records, queue state.
    """

    def __init__(self, cloud: CloudProvider, plan: BuildPlan) -> None:
        from repro.consistency.ledger import BatchLedger
        from repro.consistency.manifest import EpochRecord, Manifest
        self._cloud = cloud
        self.plan = plan
        self.manifest = Manifest(cloud.resilient.dynamodb)
        self.ledger = BatchLedger(cloud.resilient.dynamodb,
                                  plan.ledger_table)
        self._record = EpochRecord(
            name=plan.name, epoch=plan.epoch, status="pending",
            strategy=plan.strategy.name, tables=dict(plan.table_names),
            ledger_table=plan.ledger_table, batches=len(plan.batches),
            batch_size=plan.batch_size, shards=plan.shards)
        self._store: Any = None  # the run's, whose forms commit digests

    # -- prepare -----------------------------------------------------------

    def prepare(self, store: Any) -> Generator[Any, Any, None]:
        """Create tables (idempotently) and record the pending epoch.

        Under sharding each logical table is backed by several physical
        tables; existence is checked shard by shard so a resume after a
        partial create finishes the job without clobbering anything.
        """
        from repro.store.sharding import shard_table_names
        self._store = store
        db = self._cloud.resilient.dynamodb
        existing = set(db.table_names())
        creator = getattr(store, "create_physical_table",
                          store.create_table)
        for physical in self.plan.table_names.values():
            for shard_table in shard_table_names(physical,
                                                 self.plan.shards):
                if shard_table not in existing:
                    creator(shard_table)
        self.ledger.ensure_table()
        if META_BUCKET not in self._cloud.s3.bucket_names():
            self._cloud.s3.create_bucket(META_BUCKET)
        yield from self.manifest.put_pending(self._record)

    # -- queue management --------------------------------------------------

    def missing_batches(self) -> Generator[Any, Any,
                                           List[BatchLoadRequest]]:
        """Plan batches not yet recorded in the ledger, in plan order."""
        applied = yield from self.ledger.entries()
        return [batch for batch in self.plan.batches
                if batch.batch_id not in applied]

    def enqueue(self, batches: List[BatchLoadRequest],
                ) -> Generator[Any, Any, int]:
        """Post load requests for ``batches`` on the loader queue."""
        for batch in batches:
            yield from self._cloud.resilient.sqs.send(LOADER_QUEUE, batch)
        return len(batches)

    def purge_loader_queue(self) -> Generator[Any, Any, int]:
        """Drop stale pre-crash deliveries before a resume enqueues."""
        dropped = yield from self._cloud.sqs.purge(LOADER_QUEUE)
        return dropped

    # -- commit ------------------------------------------------------------

    def applied_count(self) -> Generator[Any, Any, int]:
        """How many planned batches the ledger records as applied."""
        applied = yield from self.ledger.entries()
        return sum(1 for batch_id in self.plan.batch_ids
                   if batch_id in applied)

    def commit(self) -> Generator[Any, Any, Any]:
        """Verify the ledger, write inventories, flip the manifest.

        Returns the committed :class:`EpochRecord`.  Raises
        :class:`BuildStateError` if any planned batch is missing from
        the ledger (committing a partial epoch is never allowed) or if
        another committer won the flip race.
        """
        applied = yield from self.ledger.entries()
        missing = [batch_id for batch_id in self.plan.batch_ids
                   if batch_id not in applied]
        if missing:
            raise BuildStateError(
                "cannot commit {} epoch {}: {} of {} batches missing "
                "from ledger (first: {})".format(
                    self.plan.name, self.plan.epoch, len(missing),
                    len(self.plan.batches), missing[0]))

        # Ground-truth inventories + content digest, from a full scan of
        # the freshly-built (undamaged) tables.  A sharded logical table
        # is scanned shard by shard (ascending shard order) and
        # inventoried as one logical coverage map, so scrub/repair and
        # the 2LUPI cross-table invariants see a coherent logical view
        # regardless of the physical layout.
        from repro.store.sharding import shard_table_names
        scanned: List[DynamoItem] = []
        for logical in sorted(self.plan.table_names):
            physical = self.plan.table_names[logical]
            items = []
            for shard_table in shard_table_names(physical,
                                                 self.plan.shards):
                shard_items = yield from \
                    self._cloud.resilient.dynamodb.scan(shard_table)
                items.extend(shard_items)
            coverage = coverage_of_items(items)
            payload = json.dumps(coverage, sort_keys=True).encode("utf-8")
            yield from self._cloud.resilient.s3.put(
                META_BUCKET,
                inventory_key(self.plan.name, self.plan.epoch, logical),
                payload)
            scanned.extend(items)
        digest = items_digest(scanned, self._store.take_written()
                              if self._store is not None else None)

        previous = yield from self.manifest.committed(self.plan.name)
        expected_epoch = previous.epoch if previous else None
        from repro.consistency.manifest import EpochRecord
        record = EpochRecord(
            name=self.plan.name, epoch=self.plan.epoch, status="committed",
            strategy=self.plan.strategy.name,
            tables=dict(self.plan.table_names),
            ledger_table=self.plan.ledger_table,
            batches=len(self.plan.batches), digest=digest,
            batch_size=self.plan.batch_size, shards=self.plan.shards)
        committed = yield from self.manifest.commit(record, expected_epoch)
        yield from self.manifest.clear_pending(self.plan.name)
        return committed

    # -- inventories (shared with the scrubber) ----------------------------

    def load_inventory(self, logical: str,
                       ) -> Generator[Any, Any, Dict[str, List[str]]]:
        """Read one table's committed inventory back from S3."""
        data = yield from self._cloud.resilient.s3.get(
            META_BUCKET,
            inventory_key(self.plan.name, self.plan.epoch, logical))
        return json.loads(data.decode("utf-8"))
