"""Delta-epoch publication: live mutations on a committed index.

A :class:`LiveIndex` is the mutable handle over one committed epoch:
it duck-types :class:`~repro.warehouse.warehouse.BuiltIndex` (same
``strategy`` / ``store`` / ``table_names`` / ``make_lookup`` surface)
so query workers and the serving runtime use it unchanged, but its
store is the :class:`~repro.mutations.merge.MergingStore`, which
re-resolves the base epoch and delta chain on every read.

A mutation publishes one *delta epoch*:

1. arriving documents are stored in S3 (the paper's steps 1-2) and
   indexed by a loader fleet into fresh ``dlt-*`` tables, batch by
   batch through the batch ledger (the same crash-safe pipeline as a
   checkpointed build, just over a small corpus slice);
2. the delta's :class:`~repro.consistency.manifest.DeltaRecord` —
   tables, tombstones, content digest — is appended to the index's
   ``#live`` chain with one conditional put.  Until that flip no
   reader can observe the delta; after it every read merges it in:
   read-your-writes with no worker restart.

Deletes publish a tombstone-only delta (no tables, no fleet) and then
remove the documents from S3 — tombstone-first, so a publication that
loses every flip attempt leaves the index consistent (the documents
are still fetchable); an update is one delta carrying both the
tombstone and the re-extracted entries, so it is atomic under the flip.

Concurrency contract: delta publications share the loader queue with
checkpointed builds, so at most one publication may be in flight per
cloud — :func:`mutation_feed` serialises a mutation schedule into a
single background process for exactly this reason.  Mutation meter
records carry whatever tag is innermost when the simulation runs (the
``serve`` tag when interleaved with traffic), keeping the serving
report's span-vs-estimator dollar tie-out exact; standalone wrapper
calls (:meth:`~repro.warehouse.warehouse.Warehouse.add_documents`)
get their own tag and their reports tie out per-operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.consistency.build import items_digest, partition_batches
from repro.consistency.ledger import BatchLedger
from repro.consistency.manifest import DeltaRecord, LiveHead, Manifest
from repro.errors import BuildStateError, WarehouseError
from repro.mutations.merge import MergingStore, alias_table
from repro.store.sharding import shard_table_names
from repro.warehouse.deployment import DeploymentConfig
from repro.warehouse.loader import IndexerWorker, LoaderWorkerStats
from repro.warehouse.messages import LOADER_QUEUE, StopWorker
from repro.xmark.corpus import Corpus
from repro.xmldb.parser import parse_document

__all__ = ["DeltaReport", "IngestionReport", "LiveIndex",
           "compaction_ticker", "mutation_feed"]

#: Bounded retries for the live-head conditional put (a compaction may
#: rewrite the chain between our read and our put).
_FLIP_ATTEMPTS = 5


@dataclass
class DeltaReport:
    """What one published delta epoch did and what it cost.

    ``span_cost`` / ``estimator_cost`` are request-dollar
    :class:`~repro.costs.estimator.CostBreakdown` rollups — the priced
    span subtree versus the metered phase tag.  They are filled by the
    standalone warehouse wrappers (under ``serve()`` the mutation bills
    into the serving tag instead, keeping *that* tie-out exact) and
    must agree to the last float bit.
    """

    name: str
    kind: str                   # "add", "delete" or "update"
    seq: int
    base_epoch: int
    version: int
    documents: int
    tombstones: Tuple[str, ...]
    tables: Dict[str, str]
    digest: str
    duration_s: float
    entries: int = 0
    puts: int = 0
    items: int = 0
    batches: int = 0
    payload_bytes: int = 0
    span_id: int = 0
    tag: str = ""
    span_cost: Optional[Any] = None
    estimator_cost: Optional[Any] = None

    @property
    def cost_tied_out(self) -> Optional[bool]:
        """Exact span-vs-estimator agreement (None when unpriced)."""
        if self.span_cost is None or self.estimator_cost is None:
            return None
        return abs(self.span_cost.total - self.estimator_cost.total) < 1e-9

    def to_payload(self) -> Dict[str, Any]:
        """Deterministic dict form (the golden-report building block)."""
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "seq": self.seq,
            "base_epoch": self.base_epoch,
            "version": self.version,
            "documents": self.documents,
            "tombstones": sorted(self.tombstones),
            "tables": dict(sorted(self.tables.items())),
            "digest": self.digest,
            "duration_s": self.duration_s,
            "entries": self.entries,
            "puts": self.puts,
            "items": self.items,
            "batches": self.batches,
            "payload_bytes": self.payload_bytes,
        }
        if self.span_cost is not None:
            payload["span_dollars"] = self.span_cost.total
        if self.estimator_cost is not None:
            payload["estimator_dollars"] = self.estimator_cost.total
        return payload


@dataclass
class IngestionReport:
    """The full mutation history of one live index, canonically shaped.

    :meth:`to_json` is byte-deterministic: two runs with the same seeds
    and the same mutation schedule serialise identically (the golden
    determinism test in ``tests/mutations`` holds this invariant).
    """

    name: str
    deltas: List[DeltaReport] = field(default_factory=list)
    compactions: List[Any] = field(default_factory=list)

    @property
    def documents(self) -> int:
        """Documents added across every delta."""
        return sum(report.documents for report in self.deltas)

    @property
    def puts(self) -> int:
        """Billable index put operations across deltas and compactions."""
        return (sum(report.puts for report in self.deltas)
                + sum(report.puts for report in self.compactions))

    def to_payload(self) -> Dict[str, Any]:
        """Canonical dict form of the whole ingestion history."""
        return {
            "index": self.name,
            "deltas": [report.to_payload() for report in self.deltas],
            "compactions": [report.to_payload()
                            for report in self.compactions],
            "documents": self.documents,
            "puts": self.puts,
        }

    def to_json(self) -> str:
        """Byte-deterministic JSON rendering of :meth:`to_payload`."""
        return json.dumps(self.to_payload(), indent=2,
                          sort_keys=True) + "\n"


class LiveIndex:
    """Mutable handle over one committed index epoch plus its deltas.

    Built by :meth:`~repro.warehouse.warehouse.Warehouse.live_index`.
    Carries the committed :class:`~repro.consistency.manifest.
    EpochRecord`, the current delta chain, and the per-layer read
    stores the :class:`~repro.mutations.merge.MergingStore` resolves
    through.  The handle is updated *in place* by publications and
    compactions, so lookup planners built from it (even ones baked into
    long-lived serving workers) observe every flip immediately.
    """

    def __init__(self, warehouse: Any, record: Any, head: LiveHead,
                 strategy: Any) -> None:
        self.warehouse = warehouse
        self.name = record.name
        #: The committed base :class:`EpochRecord` (replaced on compaction).
        self.record = record
        self.strategy = strategy
        self.version = head.version
        self.deltas: List[DeltaRecord] = []
        #: Alias tables the lookup planners are built over — stable
        #: across every delta and epoch flip.
        self.table_names = {
            logical: alias_table(self.name, logical)
            for logical in strategy.logical_tables}
        #: Content-mode router over the committed base tables.
        self.base_store = self._store_for(record.epoch)
        self._delta_stores: Dict[int, Any] = {}
        self._alias_to_logical = {alias: logical for logical, alias
                                  in self.table_names.items()}
        self._seq_floor = head.next_seq
        self.store = MergingStore(self)
        #: ``BuiltIndex`` duck-type: live handles carry no build report.
        self.report = None
        #: Every delta published through this handle, in order.
        self.history: List[DeltaReport] = []
        #: Every compaction run through this handle, in order.
        self.compactions: List[Any] = []
        self._sync_head(head)

    # -- BuiltIndex surface --------------------------------------------------

    def make_lookup(self) -> Any:
        """The strategy's look-up planner over the merging store."""
        return self.strategy.make_lookup(self.store, self.table_names)

    @property
    def physical_tables(self) -> List[str]:
        """The stable alias tables (resolved per read, never created)."""
        return [self.table_names[logical]
                for logical in self.strategy.logical_tables]

    def stored_bytes(self) -> int:
        """Billable bytes across the base epoch and every delta table."""
        return self.store.stored_bytes(self.physical_tables)

    # -- layer resolution (the MergingStore's view) --------------------------

    def logical_of(self, alias: str) -> str:
        """Map an alias table name back to its logical table."""
        try:
            return self._alias_to_logical[alias]
        except KeyError:
            raise WarehouseError(
                "{!r} is not a live alias of index {}".format(
                    alias, self.name))

    def base_table(self, logical: str) -> str:
        """The committed base epoch's physical table for ``logical``."""
        return self.record.tables[logical]

    def delta_layers(self) -> List[Tuple[DeltaRecord, Any]]:
        """The delta chain in sequence order, each with its read store.

        Tombstone-only deltas carry ``None`` for the store — they have
        no tables to read, only URIs to mask.
        """
        return [(delta, self._delta_stores.get(delta.seq))
                for delta in self.deltas]

    def ingestion_report(self) -> IngestionReport:
        """Snapshot of the handle's full mutation history."""
        return IngestionReport(name=self.name, deltas=list(self.history),
                               compactions=list(self.compactions))

    # -- state maintenance ---------------------------------------------------

    def _store_for(self, seed: int) -> Any:
        """A content-mode read/write router keyed under ``seed``."""
        return self.warehouse._make_store("dynamodb", seed=seed,
                                          range_key_mode="content",
                                          epoch=seed)

    def _sync_head(self, head: LiveHead) -> None:
        """Adopt a freshly-read (or freshly-put) delta chain."""
        self.version = head.version
        self.deltas = sorted(head.deltas, key=lambda delta: delta.seq)
        live_seqs = {delta.seq for delta in self.deltas}
        for seq in list(self._delta_stores):
            if seq not in live_seqs:
                del self._delta_stores[seq]
        for delta in self.deltas:
            if delta.tables and delta.seq not in self._delta_stores:
                self._delta_stores[delta.seq] = self._store_for(delta.seq)
        self._seq_floor = max(self._seq_floor,
                              max(live_seqs, default=0) + 1)

    def refresh(self) -> Generator[Any, Any, None]:
        """Re-read the committed record and delta chain (other writers)."""
        manifest = Manifest(self.warehouse.cloud.resilient.dynamodb)
        record = yield from manifest.committed(self.name)
        if record is None:
            raise WarehouseError(
                "index {} is no longer committed".format(self.name))
        if record.epoch != self.record.epoch:
            self.base_store = self._store_for(record.epoch)
        self.record = record
        head = yield from manifest.live_head(self.name)
        self._sync_head(head)

    # -- publication cores (generator seams; wrappers add tag + pricing) ----

    def publish_add(self, increment: Corpus,
                    config: Optional[Any] = None,
                    ) -> Generator[Any, Any, DeltaReport]:
        """Publish new documents as one delta epoch (steps 1-6, live)."""
        warehouse = self.warehouse
        if warehouse.corpus is None:
            raise WarehouseError(
                "upload_corpus() must run before live mutations")
        duplicate = set(warehouse.corpus.data) & set(increment.data)
        if duplicate:
            raise WarehouseError(
                "increment re-uses existing URIs: {}".format(
                    sorted(duplicate)[:3]))
        cfg = DeploymentConfig.resolve(warehouse.deployment, config)
        additions = [(document.uri, increment.data[document.uri])
                     for document in increment.documents]
        report = yield from self._publish("add", additions, (), cfg)
        warehouse.corpus = Corpus(
            documents=warehouse.corpus.documents + increment.documents,
            data={**warehouse.corpus.data, **increment.data},
            kinds={**warehouse.corpus.kinds, **increment.kinds},
            restructured=(warehouse.corpus.restructured
                          + increment.restructured),
            heterogenized=(warehouse.corpus.heterogenized
                           + increment.heterogenized))
        warehouse._all_uris.extend(doc.uri for doc in increment.documents)
        warehouse._parse_cache.update(
            {doc.uri: doc for doc in increment.documents})
        return report

    def publish_delete(self, uris: Sequence[str],
                       ) -> Generator[Any, Any, DeltaReport]:
        """Publish a tombstone-only delta masking ``uris`` everywhere."""
        warehouse = self.warehouse
        if warehouse.corpus is None:
            raise WarehouseError(
                "upload_corpus() must run before live mutations")
        doomed = list(dict.fromkeys(uris))
        missing = [uri for uri in doomed
                   if uri not in warehouse.corpus.data]
        if missing:
            raise WarehouseError(
                "cannot delete unknown documents: {}".format(missing[:3]))
        report = yield from self._publish("delete", [], tuple(doomed), None)
        gone = set(doomed)
        warehouse.corpus = Corpus(
            documents=[doc for doc in warehouse.corpus.documents
                       if doc.uri not in gone],
            data={uri: data for uri, data in warehouse.corpus.data.items()
                  if uri not in gone},
            kinds={uri: kind for uri, kind in warehouse.corpus.kinds.items()
                   if uri not in gone},
            restructured=warehouse.corpus.restructured,
            heterogenized=warehouse.corpus.heterogenized)
        warehouse._all_uris[:] = [uri for uri in warehouse._all_uris
                                  if uri not in gone]
        for uri in doomed:
            warehouse._parse_cache.pop(uri, None)
        return report

    def publish_update(self, uri: str, data: bytes,
                       config: Optional[Any] = None,
                       ) -> Generator[Any, Any, DeltaReport]:
        """Replace one document: tombstone + re-extraction in one delta."""
        warehouse = self.warehouse
        if warehouse.corpus is None:
            raise WarehouseError(
                "upload_corpus() must run before live mutations")
        if uri not in warehouse.corpus.data:
            raise WarehouseError(
                "cannot update unknown document {!r}".format(uri))
        cfg = DeploymentConfig.resolve(warehouse.deployment, config)
        report = yield from self._publish("update", [(uri, data)],
                                          (uri,), cfg)
        updated = parse_document(data, uri)
        warehouse.corpus = Corpus(
            documents=[updated if doc.uri == uri else doc
                       for doc in warehouse.corpus.documents],
            data={**warehouse.corpus.data, uri: data},
            kinds=dict(warehouse.corpus.kinds),
            restructured=warehouse.corpus.restructured,
            heterogenized=warehouse.corpus.heterogenized)
        warehouse._parse_cache[uri] = updated
        return report

    # -- the shared publication pipeline -------------------------------------

    def _publish(self, kind: str, additions: List[Tuple[str, bytes]],
                 tombstones: Tuple[str, ...], cfg: Optional[Any],
                 ) -> Generator[Any, Any, DeltaReport]:
        """Store → index → flip: the delta-epoch state machine."""
        from repro.warehouse.warehouse import DOCUMENT_BUCKET
        warehouse = self.warehouse
        cloud = warehouse.cloud
        env = cloud.env
        manifest = Manifest(cloud.resilient.dynamodb)
        started = env.now
        with warehouse._span("ingest-delta", index=self.name, kind=kind,
                             documents=len(additions),
                             tombstones=len(tombstones)) as span:
            head = yield from manifest.live_head(self.name)
            seq = max(head.next_seq, self._seq_floor)
            slug = self.name.lower()

            # Steps 1-2: the front end stores the arriving documents.
            # (Deletes remove theirs only *after* the flip below —
            # tombstone-first, so a lost publication never leaves the
            # index serving URIs whose documents are already gone.)
            for uri, data in additions:
                yield from warehouse.frontend.store_document(uri, data)

            tables: Dict[str, str] = {}
            ledger_table = ""
            digest = ""
            stats: List[LoaderWorkerStats] = []
            delta_store = None
            if additions:
                tables = {
                    logical: "dlt-{}-{}-e{}s{}".format(
                        slug, logical, self.record.epoch, seq)
                    for logical in self.strategy.logical_tables}
                ledger_table = "ldg-{}-e{}s{}".format(
                    slug, self.record.epoch, seq)
                delta_store = self._store_for(seq)
                for physical in tables.values():
                    delta_store.create_table(physical)
                ledger = BatchLedger(cloud.resilient.dynamodb, ledger_table)
                ledger.ensure_table()
                batches = partition_batches(
                    "{}-s{}".format(self.name, seq), self.record.epoch,
                    [uri for uri, _ in additions], cfg.batch_size)
                count = max(1, min(cfg.loaders, len(batches)))
                fleet = cloud.ec2.launch_fleet(cfg.loader_type, count)
                workers = [IndexerWorker(cloud, instance, delta_store,
                                         self.strategy, tables,
                                         DOCUMENT_BUCKET,
                                         batch_size=cfg.batch_size,
                                         ledger=ledger)
                           for instance in fleet]
                procs = [env.process(
                    worker.run(),
                    name="delta-loader-s{}-{}".format(seq, i))
                    for i, worker in enumerate(workers)]
                for batch in batches:
                    yield from cloud.resilient.sqs.send(LOADER_QUEUE, batch)
                for _ in procs:
                    yield from cloud.resilient.sqs.send(
                        LOADER_QUEUE, StopWorker())
                for proc in procs:
                    yield proc
                # Stop only this publication's instances — a serving
                # fleet may be running on the same cloud.
                for instance in fleet:
                    if instance.running:
                        cloud.ec2.stop(instance)
                stats = [worker.stats for worker in workers]
                scanned = []
                for logical in sorted(tables):
                    for shard_table in shard_table_names(
                            tables[logical],
                            warehouse.store_config.shards):
                        scanned.extend(
                            cloud.dynamodb.table(shard_table).all_items())
                digest = items_digest(scanned, delta_store.take_written())

            # The conditional flip: append to the chain, retrying if a
            # concurrent compaction rewrote it (bounded, like
            # Manifest.drop_compacted).
            new_head: Optional[LiveHead] = None
            failure: Optional[BuildStateError] = None
            for _ in range(_FLIP_ATTEMPTS):
                head = yield from manifest.live_head(self.name)
                delta = DeltaRecord(
                    name=self.name, base_epoch=self.record.epoch, seq=seq,
                    tables=tables, tombstones=tuple(tombstones),
                    documents=len(additions), ledger_table=ledger_table,
                    digest=digest)
                candidate = LiveHead(name=self.name,
                                     version=head.version + 1,
                                     deltas=head.deltas + (delta,))
                try:
                    new_head = yield from manifest.put_live_head(
                        candidate, head.version)
                except BuildStateError as exc:
                    failure = exc
                    continue
                break
            if new_head is None:
                raise BuildStateError(
                    "delta s{} of {} lost every flip attempt: {}".format(
                        seq, self.name, failure))
            if delta_store is not None:
                self._delta_stores[seq] = delta_store
            self._seq_floor = seq + 1
            self._sync_head(new_head)
            # Tombstone-first deletion: only once the tombstone is live
            # do the documents leave S3 (degraded full scans cannot
            # resurrect them — the tombstone already masks them).
            if kind == "delete":
                for uri in tombstones:
                    yield from cloud.resilient.s3.delete(
                        DOCUMENT_BUCKET, uri)
            if span is not None:
                span.attributes["seq"] = seq
            report = DeltaReport(
                name=self.name, kind=kind, seq=seq,
                base_epoch=self.record.epoch, version=new_head.version,
                documents=len(additions), tombstones=tuple(tombstones),
                tables=dict(tables), digest=digest,
                duration_s=env.now - started,
                entries=sum(s.extraction.entries for s in stats),
                puts=sum(s.writes.puts for s in stats),
                items=sum(s.writes.items for s in stats),
                batches=sum(s.writes.batches for s in stats),
                payload_bytes=sum(s.writes.payload_bytes for s in stats),
                span_id=span.span_id if span is not None else 0)
        self.history.append(report)
        return report


def mutation_feed(live: LiveIndex,
                  mutations: Iterable[Tuple[str, Any]],
                  config: Optional[Any] = None,
                  interval_s: float = 4.0) -> Callable[[], Any]:
    """A serialised mutation schedule, packaged for ``serve()``.

    ``mutations`` is a sequence of ``(op, payload)`` pairs: ``("add",
    Corpus)``, ``("delete", [uris])`` or ``("update", (uri, data))``.
    Returns a generator *factory* suitable for ``serve(background=
    [...])``; the generator applies one mutation every ``interval_s``
    simulated seconds, strictly one at a time — publications share the
    loader queue, so concurrent feeds would steal each other's batches.
    """
    warehouse = live.warehouse
    cfg = DeploymentConfig.resolve(warehouse.deployment, config)
    schedule = list(mutations)

    def feed() -> Generator[Any, Any, None]:
        """Background process: replay the schedule against the index."""
        for op, payload in schedule:
            yield warehouse.cloud.env.timeout(interval_s)
            if op == "add":
                yield from live.publish_add(payload, cfg)
            elif op == "delete":
                yield from live.publish_delete(payload)
            elif op == "update":
                uri, data = payload
                yield from live.publish_update(uri, data, cfg)
            else:
                raise WarehouseError(
                    "unknown mutation op {!r}".format(op))

    return feed


def compaction_ticker(live: LiveIndex, policy: Any,
                      interval_s: float = 10.0,
                      max_ticks: int = 12) -> Callable[[], Any]:
    """Policy-driven compaction ticks, packaged for ``serve()``.

    Returns a generator factory for ``serve(background=[...])``: every
    ``interval_s`` simulated seconds it asks ``policy.should_compact``
    about the current delta chain and, when due, folds the chain into a
    fresh base epoch.  Bounded by ``max_ticks`` so the serving run
    always terminates.
    """
    from repro.mutations.compactor import Compactor
    compactor = Compactor(live.warehouse, live)

    def ticker() -> Generator[Any, Any, None]:
        """Background process: check the policy, compact when due."""
        env = live.warehouse.cloud.env
        for _ in range(max_ticks):
            yield env.timeout(interval_s)
            if policy.should_compact(live.deltas):
                yield from compactor.run()

    return ticker
