"""The integrity scrubber: detect, explain and repair index damage.

A scrub walks every item of an epoch's tables (a metered DynamoDB
scan — scrubbing is priced work, like everything else):

- **checksum pass** — items stamped with the ``#crc`` attribute are
  re-hashed; silent bit-flips (the ``corrupt-item`` fault) fail here;
- **payload pass** — checksum-passing payloads must still *decode*:
  LUI/2LUPI ID blobs must parse and hold the §5.3 sorted-ID invariant;
- **coverage pass** — the surviving items' (key → URIs) coverage is
  compared against the committed inventory written at epoch commit;
  dropped partitions and deleted items surface as missing pairs;
- **cross-table pass** — for 2LUPI, the LUP and LUI tables must agree
  on the document set they index.

Repair is *targeted*: corrupt items are deleted, then only the damaged
``(key, URI)`` pairs are restored by re-extracting just those documents
from S3 and writing back the filtered entries.  Re-extraction is
regrouped by the epoch's original batch partition (the build merged
same-key entries of one batch into one item), so with content-addressed
items the rewrites land exactly where the originals were and a repaired
table is byte-identical to an undamaged one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.cloud.provider import CloudProvider
from repro.consistency.build import (META_BUCKET, coverage_of_items,
                                     inventory_key)
from repro.errors import EncodingError, NoSuchKey, NoSuchTable
from repro.indexing.base import IndexingStrategy
from repro.indexing.checksums import CHECKSUM_ATTR, item_checksum
from repro.xmldb.encoding import decode_ids

#: Cap on per-problem detail strings kept in a report.
MAX_DETAILS = 20


@dataclass
class ScrubReport:
    """Outcome of one scrub (and optional repair) over one index epoch."""

    index_name: str
    epoch: int
    strategy: str
    tables: Dict[str, str]
    items_scanned: int = 0
    checksum_failures: int = 0
    invariant_violations: int = 0
    missing_entries: int = 0
    items_deleted: int = 0
    documents_reextracted: int = 0
    repairs: int = 0
    repaired: bool = False
    details: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the scrub found nothing wrong."""
        return (self.checksum_failures == 0
                and self.invariant_violations == 0
                and self.missing_entries == 0)

    def note(self, detail: str) -> None:
        """Keep a bounded trail of what was found."""
        if len(self.details) < MAX_DETAILS:
            self.details.append(detail)

    def summary_line(self) -> str:
        """The one-line summary the ``scrub`` CLI prints."""
        return ("scrub {name} e{epoch} [{strategy}]: "
                "items_scanned={scanned} checksum_failures={crc} "
                "invariant_violations={inv} missing_entries={miss} "
                "repairs={rep} status={status}").format(
            name=self.index_name, epoch=self.epoch, strategy=self.strategy,
            scanned=self.items_scanned, crc=self.checksum_failures,
            inv=self.invariant_violations, miss=self.missing_entries,
            rep=self.repairs,
            status=("clean" if self.clean
                    else "repaired" if self.repaired else "damaged"))


class Scrubber:
    """Scans one index epoch, verifies it, and optionally repairs it."""

    def __init__(self, cloud: CloudProvider, store: Any,
                 strategy: IndexingStrategy, table_names: Dict[str, str],
                 index_name: str, epoch: int, document_bucket: str,
                 health: Optional[Any] = None,
                 batch_groups: Optional[List[Tuple[str, ...]]] = None,
                 ) -> None:
        self._cloud = cloud
        self._store = store
        self._strategy = strategy
        self._table_names = table_names
        self._index_name = index_name
        self._epoch = epoch
        self._bucket = document_bucket
        self._health = health
        #: The epoch's batch partition (URI tuples in plan order);
        #: repair re-extracts batch-mates together so rebuilt items
        #: merge exactly like the original build's.
        self._batch_groups = batch_groups

    # -- verification ------------------------------------------------------

    def _check_item(self, logical: str, item: Any,
                    report: ScrubReport) -> bool:
        """One item's checksum + payload checks; False means corrupt."""
        stamped = item.attributes.get(CHECKSUM_ATTR)
        if stamped is not None:
            if stamped[0] != item_checksum(item.hash_key, item.attributes):
                report.checksum_failures += 1
                report.note("checksum: {} ({!r}, {!r})".format(
                    self._table_names[logical], item.hash_key,
                    item.range_key))
                return False
        if self._strategy.table_kind(logical) != "ids":
            return True
        for name, values in item.attributes.items():
            if name == CHECKSUM_ATTR:
                continue
            for blob in values:
                try:
                    ids = decode_ids(blob)
                except (EncodingError, ValueError, TypeError):
                    report.invariant_violations += 1
                    report.note("undecodable ids: {} ({!r}, {!r})".format(
                        self._table_names[logical], item.hash_key, name))
                    return False
                if any(b.pre <= a.pre for a, b in zip(ids, ids[1:])):
                    report.invariant_violations += 1
                    report.note("unsorted ids: {} ({!r}, {!r})".format(
                        self._table_names[logical], item.hash_key, name))
                    return False
        return True

    def _load_inventory(self, logical: str,
                        ) -> Generator[Any, Any,
                                       Optional[Dict[str, List[str]]]]:
        if META_BUCKET not in self._cloud.s3.bucket_names():
            return None
        try:
            data = yield from self._cloud.resilient.s3.get(
                META_BUCKET,
                inventory_key(self._index_name, self._epoch, logical))
        except NoSuchKey:
            return None
        return json.loads(data.decode("utf-8"))

    # -- the scrub ---------------------------------------------------------

    def scrub(self, repair: bool = True) -> Generator[Any, Any, ScrubReport]:
        """Verify every table of the epoch; repair damage if asked."""
        report = ScrubReport(index_name=self._index_name, epoch=self._epoch,
                             strategy=self._strategy.name,
                             tables=dict(self._table_names))
        #: logical -> set of damaged (key, uri) pairs to restore
        damaged: Dict[str, Set[Tuple[str, str]]] = {}
        #: logical -> healthy coverage (key -> sorted URIs)
        coverage: Dict[str, Dict[str, List[str]]] = {}
        #: corrupt items to delete: (physical, hash_key, range_key)
        corpses: List[Tuple[str, str, Optional[str]]] = []

        db = self._cloud.resilient.dynamodb
        #: shard table -> the logical table's base physical name, so
        #: corpse bookkeeping deletes from real (shard) tables while
        #: health marks stay on the base names degradation checks.
        base_of: Dict[str, str] = {}
        for logical in sorted(self._table_names):
            physical = self._table_names[logical]
            good = []
            for shard_table in self._shard_tables(physical):
                base_of[shard_table] = physical
                try:
                    shard_items = yield from db.scan(shard_table)
                except NoSuchTable:
                    # The whole shard is gone: everything the inventory
                    # promises for its keys is missing.
                    self._mark(physical, "missing")
                    shard_items = []
                    if repair:
                        self._create_shard_table(shard_table)
                    report.note("missing table: {}".format(shard_table))
                report.items_scanned += len(shard_items)
                for item in shard_items:
                    if self._check_item(logical, item, report):
                        good.append(item)
                    else:
                        corpses.append((shard_table, item.hash_key,
                                        item.range_key))
            coverage[logical] = coverage_of_items(good)

            inventory = yield from self._load_inventory(logical)
            if inventory is None:
                continue
            missing: Set[Tuple[str, str]] = set()
            for key, uris in inventory.items():
                have = set(coverage[logical].get(key, ()))
                for uri in uris:
                    if uri not in have:
                        missing.add((key, uri))
            if missing:
                report.missing_entries += len(missing)
                damaged[logical] = missing
                sample = sorted(missing)[0]
                report.note("missing entries: {} lacks {} pairs "
                            "(e.g. {!r} / {!r})".format(
                                physical, len(missing), *sample))

        self._cross_table_checks(coverage, report)

        damaged_tables = {self._table_names[logical]
                          for logical in damaged}
        damaged_tables.update(base_of.get(shard_table, shard_table)
                              for shard_table, _, _ in corpses)
        for physical in sorted(damaged_tables):
            self._mark(physical, "suspect")

        if not repair or report.clean:
            if report.clean:
                for physical in self._table_names.values():
                    self._mark(physical, "healthy")
            return report

        yield from self._repair(damaged, corpses, report)
        return report

    def _cross_table_checks(self,
                            coverage: Dict[str, Dict[str, List[str]]],
                            report: ScrubReport) -> None:
        """§5.4: 2LUPI's two tables must index the same documents."""
        if not ("lup" in coverage and "lui" in coverage):
            return
        docs = {logical: {uri for uris in coverage[logical].values()
                          for uri in uris}
                for logical in ("lup", "lui")}
        diff = docs["lup"] ^ docs["lui"]
        if diff:
            report.invariant_violations += len(diff)
            report.note("2LUPI document sets disagree on {} URIs "
                        "(e.g. {!r})".format(len(diff), sorted(diff)[0]))

    # -- repair ------------------------------------------------------------

    def _repair(self, damaged: Dict[str, Set[Tuple[str, str]]],
                corpses: List[Tuple[str, str, Optional[str]]],
                report: ScrubReport) -> Generator[Any, Any, None]:
        db = self._cloud.resilient.dynamodb
        # 1. Delete corrupt items; their content joins the missing set.
        for physical, hash_key, range_key in corpses:
            yield from db.delete_item(physical, hash_key, range_key)
            report.items_deleted += 1
        if corpses:
            # Deleted items may have carried attributes whose pairs the
            # first pass still counted as covered; recompute the gap
            # against the inventory now that the corpses are gone.
            for logical in sorted(self._table_names):
                inventory = yield from self._load_inventory(logical)
                if inventory is None:
                    continue
                items = []
                for shard_table in self._shard_tables(
                        self._table_names[logical]):
                    shard_items = yield from db.scan(shard_table)
                    items.extend(shard_items)
                good = coverage_of_items(items)
                missing: Set[Tuple[str, str]] = set()
                for key, uris in inventory.items():
                    have = set(good.get(key, ()))
                    missing.update((key, uri) for uri in uris
                                   if uri not in have)
                if missing:
                    damaged[logical] = missing

        # 2. Re-extract only the damaged documents — batch-mates
        #    together, so same-key entries merge into one item exactly
        #    as the build's batch upload did — and write back only the
        #    damaged pairs.
        doc_uris = sorted({uri for pairs in damaged.values()
                           for _, uri in pairs})
        for group in self._repair_groups(doc_uris):
            extracted: Dict[str, List[Any]] = {}
            for uri in group:
                data = yield from self._cloud.resilient.s3.get(
                    self._bucket, uri)
                report.documents_reextracted += 1
                by_table, _ = self._strategy.extract_postings(data, uri)
                for logical, postings in by_table.items():
                    extracted.setdefault(logical, []).extend(postings)
            for logical in sorted(extracted):
                pairs = damaged.get(logical, set())
                if not pairs:
                    continue
                needed = [entry for entry in extracted[logical]
                          if (entry.key, entry.uri) in pairs]
                if not needed:
                    continue
                yield from self._store.write_entries(
                    self._table_names[logical], needed)
                report.repairs += len(needed)
        self._store.take_written()  # no digest follows a repair

        report.repaired = True
        for physical in self._table_names.values():
            self._mark(physical, "healthy")
        self._cloud.meter.record(self._cloud.env.now, "consistency",
                                 "scrub:repair",
                                 count=max(1, report.repairs))

    def _repair_groups(self, doc_uris: List[str]) -> List[List[str]]:
        """Damaged documents grouped by their original build batch.

        Without batch information each document repairs on its own —
        logically correct, but a multi-document item would be rebuilt
        split, losing byte-identity.
        """
        if not self._batch_groups:
            return [[uri] for uri in doc_uris]
        damaged_set = set(doc_uris)
        groups = [[uri for uri in batch if uri in damaged_set]
                  for batch in self._batch_groups]
        groups = [group for group in groups if group]
        grouped = {uri for group in groups for uri in group}
        groups.extend([uri] for uri in sorted(damaged_set - grouped))
        return groups

    def _shard_tables(self, physical: str) -> List[str]:
        """The physical shard tables behind one logical table.

        Asks the store for its routing (a
        :class:`~repro.store.router.StoreRouter` expands to its shard
        layout); plain stores scrub the single unsuffixed table — the
        pre-sharding behaviour.
        """
        from repro.store.sharding import expand_physical
        return expand_physical(self._store, physical)

    def _create_shard_table(self, shard_table: str) -> None:
        """Recreate one missing (already-routed) shard table."""
        creator = getattr(self._store, "create_physical_table",
                          self._store.create_table)
        creator(shard_table)

    def _mark(self, physical: str, state: str) -> None:
        if self._health is not None:
            self._health.mark(physical, state)
