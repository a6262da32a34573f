"""Online compaction: fold a delta chain into a fresh base epoch.

The read-merge in :mod:`repro.mutations.merge` buys read-your-writes
at the price of read amplification — every lookup pays one billed get
per delta layer.  The :class:`Compactor` reclaims that cost by folding
accumulated deltas into a brand-new base epoch, shard by shard,
reusing two existing crash-safety mechanisms wholesale:

- the *scrubber's scan/regroup pattern* — each compaction unit scans
  one shard of the base table plus the matching shard of every delta
  table (key-hash sharding routes the same key to the same shard index
  in every layer), regroups items per hash key, applies the exact
  :func:`~repro.mutations.merge.overlay_payloads` merge the read path
  uses, and rewrites the result into the new epoch's tables;
- the *build ledger* — every unit records completion under a
  deterministic unit id, so an interrupted compaction resumed later
  skips finished units, and content-addressed (``range_key_mode=
  "content"``) rewrites make the replayed writes byte-identical.
  The first pass additionally *pins* the delta chain it folds in the
  ledger, so a resume folds exactly the chain its completed units
  already folded — a delta published between the interruption and the
  resume is neither half-folded nor dropped; it stays in the live
  head, rebased onto the new epoch.

The new epoch commits through the standard
:class:`~repro.consistency.build.BuildCoordinator` flip (inventories,
digest, conditional put), then
:meth:`~repro.consistency.manifest.Manifest.drop_compacted` removes
the folded deltas from the live chain — deltas published *during* the
compaction survive, rebased onto the new epoch.  Old tables are kept
by default (in-flight reads may still hold them); ``retire=True``
drops them once the caller knows no reader remains.

:class:`CompactionPolicy` decides *when*: by chain length or by
accumulated delta documents, evaluated by the
:func:`~repro.mutations.live.compaction_ticker` between serving
traffic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.consistency.build import BuildCoordinator, BuildPlan
from repro.errors import BuildStateError
from repro.indexing.entries import Posting
from repro.indexing.mapper import DynamoIndexStore, batch_entries_hash
from repro.mutations.merge import overlay_payloads
from repro.store.sharding import shard_of, shard_table_names

__all__ = ["CompactionPolicy", "CompactionReport", "Compactor"]


@dataclass(frozen=True)
class CompactionPolicy:
    """When the ticker should fold the delta chain into a new base.

    ``max_deltas`` triggers on chain length (the paper's read-cost
    lever: every delta is one more billed get per lookup);
    ``max_documents`` (0 = disabled) triggers on accumulated delta
    documents regardless of chain length.
    """

    max_deltas: int = 3
    max_documents: int = 0

    def should_compact(self, deltas: Any) -> bool:
        """Whether the current delta chain is due for compaction."""
        chain = list(deltas)
        if not chain:
            return False
        if len(chain) >= self.max_deltas:
            return True
        if self.max_documents:
            return (sum(delta.documents for delta in chain)
                    >= self.max_documents)
        return False


@dataclass
class CompactionReport:
    """What one compaction run did, unit by unit, and what it cost."""

    name: str
    from_epoch: int
    to_epoch: int
    folded_seqs: Tuple[int, ...]
    tombstones_applied: int = 0
    units_total: int = 0
    units_done: int = 0
    units_skipped: int = 0
    interrupted: bool = False
    committed: bool = False
    scanned_items: int = 0
    entries_written: int = 0
    puts: int = 0
    items: int = 0
    batches: int = 0
    payload_bytes: int = 0
    cache_invalidated: int = 0
    duration_s: float = 0.0
    digest: str = ""
    tag: str = ""
    span_id: int = 0
    span_cost: Optional[Any] = None
    estimator_cost: Optional[Any] = None

    @property
    def cost_tied_out(self) -> Optional[bool]:
        """Exact span-vs-estimator agreement (None when unpriced)."""
        if self.span_cost is None or self.estimator_cost is None:
            return None
        return abs(self.span_cost.total - self.estimator_cost.total) < 1e-9

    def to_payload(self) -> Dict[str, Any]:
        """Deterministic dict form for the ingestion report."""
        payload: Dict[str, Any] = {
            "from_epoch": self.from_epoch,
            "to_epoch": self.to_epoch,
            "folded_seqs": list(self.folded_seqs),
            "tombstones_applied": self.tombstones_applied,
            "units_total": self.units_total,
            "units_done": self.units_done,
            "units_skipped": self.units_skipped,
            "interrupted": self.interrupted,
            "committed": self.committed,
            "scanned_items": self.scanned_items,
            "entries_written": self.entries_written,
            "puts": self.puts,
            "items": self.items,
            "batches": self.batches,
            "payload_bytes": self.payload_bytes,
            "cache_invalidated": self.cache_invalidated,
            "duration_s": self.duration_s,
            "digest": self.digest,
        }
        if self.span_cost is not None:
            payload["span_dollars"] = self.span_cost.total
        if self.estimator_cost is not None:
            payload["estimator_dollars"] = self.estimator_cost.total
        return payload


class Compactor:
    """Folds a live index's delta chain into a fresh committed epoch."""

    def __init__(self, warehouse: Any, live: Any) -> None:
        self.warehouse = warehouse
        self.live = live

    def run(self, max_units: Optional[int] = None, retire: bool = False,
            ) -> Generator[Any, Any, CompactionReport]:
        """One compaction pass; returns its :class:`CompactionReport`.

        ``max_units`` caps how many *fresh* units this pass executes
        (the crash-injection hook for the resume tests): hitting the
        cap leaves the pass ``interrupted`` with nothing committed —
        readers keep merging the old chain — and a later ``run()``
        replays only the missing units via the ledger, folding the
        chain the first pass pinned.  An interrupted pass still lands
        in ``live.compactions`` so the ingestion report accounts for
        every write it billed.  ``retire`` additionally drops the
        superseded base and delta tables after the flip; leave it
        False while any reader may still hold them.
        """
        live = self.live
        warehouse = self.warehouse
        cloud = warehouse.cloud
        env = cloud.env
        base_record = live.record
        if not live.deltas:
            return CompactionReport(
                name=live.name, from_epoch=base_record.epoch,
                to_epoch=base_record.epoch, folded_seqs=())
        to_epoch = base_record.epoch + 1
        slug = live.name.lower()
        shards = warehouse.store_config.shards
        new_tables = {
            logical: "idx-{}-{}-e{}".format(slug, logical, to_epoch)
            for logical in live.strategy.logical_tables}
        plan = BuildPlan(
            name=live.name, strategy=live.strategy, epoch=to_epoch,
            batch_size=0, batches=[], table_names=new_tables,
            ledger_table="ldg-{}-e{}-cmp".format(slug, to_epoch),
            shards=shards)
        coordinator = BuildCoordinator(cloud, plan)
        started = env.now
        report = CompactionReport(
            name=live.name, from_epoch=base_record.epoch, to_epoch=to_epoch,
            folded_seqs=())
        with warehouse._span("compaction", index=live.name,
                             from_epoch=base_record.epoch,
                             to_epoch=to_epoch,
                             deltas=len(live.deltas)) as span:
            if span is not None:
                report.span_id = span.span_id
            store = warehouse._make_store("dynamodb", seed=to_epoch,
                                          range_key_mode="content",
                                          epoch=to_epoch)
            yield from coordinator.prepare(store)
            deltas = yield from self._pin_chain(coordinator, to_epoch)
            report.folded_seqs = tuple(delta.seq for delta in deltas)
            report.tombstones_applied = len({uri for delta in deltas
                                             for uri in delta.tombstones})

            units = [(logical, shard)
                     for logical in sorted(live.strategy.logical_tables)
                     for shard in range(shards)]
            report.units_total = len(units)
            for logical, shard in units:
                unit_id = "{}-e{}-cmp-{}-s{:02d}".format(
                    live.name, to_epoch, logical, shard)
                applied = yield from coordinator.ledger.lookup(unit_id)
                if applied is not None:
                    report.units_skipped += 1
                    continue
                if max_units is not None and report.units_done >= max_units:
                    report.interrupted = True
                    break
                yield from self._fold_unit(coordinator, store, base_record,
                                           deltas, logical, shard,
                                           new_tables[logical], unit_id,
                                           report)
                report.units_done += 1

            if not report.interrupted:
                record = yield from coordinator.commit()
                new_head = yield from coordinator.manifest.drop_compacted(
                    live.name, to_epoch, report.folded_seqs)

                # Targeted cache coherence: only the superseded layers'
                # tables — entries of other indexes survive untouched.
                doomed = set(base_record.tables.values())
                for delta in deltas:
                    doomed.update(delta.tables.values())
                if warehouse.index_cache is not None:
                    report.cache_invalidated = \
                        warehouse.index_cache.invalidate_tables(doomed)
                if retire:
                    # The base epoch may predate this deployment's shard
                    # count; its own routing metadata names its tables.
                    for table in sorted(base_record.tables.values()):
                        for shard_table in shard_table_names(
                                table, base_record.shards):
                            if shard_table in cloud.dynamodb.table_names():
                                cloud.dynamodb.delete_table(shard_table)
                    delta_tables = {table for delta in deltas
                                    for table in delta.tables.values()}
                    for table in sorted(delta_tables):
                        for shard_table in shard_table_names(table, shards):
                            if shard_table in cloud.dynamodb.table_names():
                                cloud.dynamodb.delete_table(shard_table)

                live.record = record
                live.base_store = store
                live._sync_head(new_head)
                report.committed = True
                report.digest = record.digest
            report.duration_s = env.now - started
        live.compactions.append(report)
        return report

    def _pin_chain(self, coordinator: BuildCoordinator, to_epoch: int,
                   ) -> Generator[Any, Any, List[Any]]:
        """The delta chain this compaction epoch folds, pinned durably.

        The first pass records the seqs it snapshots in the compaction
        ledger; a resumed pass folds exactly that pinned set, so units
        completed before the interruption and units replayed after it
        agree on the folded chain even if new deltas were published in
        between — those stay in the live head (``drop_compacted`` only
        removes the pinned seqs) and survive, rebased onto the new
        epoch.
        """
        live = self.live
        pin_id = "{}-e{}-cmp-chain".format(live.name, to_epoch)
        pinned = yield from coordinator.ledger.lookup(pin_id)
        if pinned is None:
            snapshot = list(live.deltas)
            yield from coordinator.ledger.record(
                pin_id, json.dumps([delta.seq for delta in snapshot]))
            return snapshot
        by_seq = {delta.seq: delta for delta in live.deltas}
        pinned_seqs = json.loads(pinned)
        missing = [seq for seq in pinned_seqs if seq not in by_seq]
        if missing:
            raise BuildStateError(
                "compaction of {} to epoch {} pinned deltas {} that are "
                "no longer in the live chain".format(
                    live.name, to_epoch, missing))
        return [by_seq[seq] for seq in pinned_seqs]

    def _fold_unit(self, coordinator: BuildCoordinator, store: Any,
                   base_record: Any, deltas: List[Any], logical: str,
                   shard: int, new_table: str, unit_id: str,
                   report: CompactionReport,
                   ) -> Generator[Any, Any, None]:
        """Fold one (logical table, shard) unit into the new epoch.

        Scan → regroup → overlay-merge → rewrite → ledger-record, all
        against shard ``shard`` of every layer (key-hash sharding keeps
        a key in the same shard index across base and deltas).  The
        fold never leaves stored form; its regroup verifies every
        scanned item's checksum, so corruption raises before this unit
        writes and the pass stays uncommitted like an interrupted one.
        """
        live = self.live
        cloud = self.warehouse.cloud
        kind = live.strategy.table_kind(logical)
        shards = self.warehouse.store_config.shards

        # The base epoch's tables are laid out under its *own* routing
        # metadata (the record may predate this deployment's shard
        # count); deltas and the new epoch use the current config.
        base_tables = shard_table_names(base_record.tables[logical],
                                        base_record.shards)
        if base_record.shards == shards:
            base_scan = [base_tables[shard]]
        else:
            # Shard counts differ, so base shard indexes do not align
            # with this unit's: scan every base shard and keep only the
            # keys that route to this unit under the current config.
            base_scan = base_tables

        def regroup(table: str) -> Generator[Any, Any, Dict[str, Any]]:
            scanned = yield from cloud.resilient.dynamodb.scan(table)
            report.scanned_items += len(scanned)
            return DynamoIndexStore._stored_postings(table, scanned, kind)

        base: Dict[str, Dict[str, Posting]] = {}
        for table in base_scan:
            base.update((yield from regroup(table)))
        if base_record.shards != shards:
            base = {key: payloads for key, payloads in base.items()
                    if shard_of(key, shards) == shard}
        layers: List[Tuple[Dict[str, Dict[str, Posting]],
                           Tuple[str, ...]]] = []
        for delta in deltas:
            payloads = {}
            if logical in delta.tables:
                payloads = yield from regroup(shard_table_names(
                    delta.tables[logical], shards)[shard])
            layers.append((payloads, delta.tombstones))

        keys = set(base)
        for payloads, _ in layers:
            keys.update(payloads)
        postings: List[Posting] = []
        for key in sorted(keys):
            merged = overlay_payloads(
                base.get(key, {}), [(payloads.get(key, {}), tombstones)
                                    for payloads, tombstones in layers])
            postings.extend(merged[uri] for uri in sorted(merged))
        if postings:
            stats = yield from store.write_entries(new_table, postings)
            report.entries_written += len(postings)
            report.puts += stats.puts
            report.items += stats.items
            report.batches += stats.batches
            report.payload_bytes += stats.payload_bytes
        yield from coordinator.ledger.record(
            unit_id, batch_entries_hash({logical: postings}))
