"""The entry-based compaction fold, kept as the tests' reference.

This is the fold the compactor ran before it carried index bytes from
scan to put: every scanned item is inflated to payload objects (the
row read path as it then was — every ID blob to ``NodeID``\\ s,
deduplicated and sorted), overlaid, wrapped in
:class:`~repro.indexing.entries.IndexEntry` objects and handed to
``write_entries`` and ``batch_entries_hash`` as entries, which encode
them again.  It verifies no checksum.  ``test_fold_identity`` runs it
on a twin warehouse and requires the production fold to store the same
bytes.
"""

from repro.indexing.checksums import CHECKSUM_ATTR
from repro.indexing.entries import IndexEntry
from repro.indexing.mapper import batch_entries_hash
from repro.mutations.compactor import Compactor
from repro.mutations.merge import overlay_payloads
from repro.store.sharding import shard_of, shard_table_names
from repro.xmldb.encoding import decode_ids


def _group_by_key(items):
    groups = {}
    for item in items:
        groups.setdefault(item.hash_key, []).append(item)
    return groups


def reference_merge_items(items, kind):
    """URI -> payload objects for one key's items (the row read path)."""
    merged = {}
    blobs = {}
    for item in items:
        for uri, values in item.attributes.items():
            if uri == CHECKSUM_ATTR:
                continue
            if kind == "presence":
                merged[uri] = None
            elif kind == "paths":
                existing = list(merged.get(uri, ()))
                for value in values:
                    if value not in existing:
                        existing.append(value)
                merged[uri] = tuple(existing)
            else:  # ids
                blobs.setdefault(uri, []).extend(values)
    if kind == "ids":
        for uri, uri_blobs in blobs.items():
            decoded = []
            for blob in uri_blobs:
                decoded = decoded + decode_ids(blob)
            merged[uri] = sorted(set(decoded), key=lambda nid: nid.pre)
    return merged


class ReferenceCompactor(Compactor):
    """A :class:`Compactor` whose units fold through entry objects."""

    def _fold_unit(self, coordinator, store, base_record, deltas, logical,
                   shard, new_table, unit_id, report):
        live = self.live
        cloud = self.warehouse.cloud
        kind = live.strategy.table_kind(logical)
        shards = self.warehouse.deployment.shards

        base_tables = shard_table_names(base_record.tables[logical],
                                        base_record.shards)
        if base_record.shards == shards:
            base_scan = [base_tables[shard]]
        else:
            base_scan = base_tables
        base_items = []
        for table in base_scan:
            scanned = yield from cloud.resilient.dynamodb.scan(table)
            base_items.extend(scanned)
        report.scanned_items += len(base_items)
        base_groups = _group_by_key(base_items)
        if base_record.shards != shards:
            base_groups = {key: group for key, group in base_groups.items()
                           if shard_of(key, shards) == shard}
        layer_groups = []
        for delta in deltas:
            table = delta.tables.get(logical)
            if table is None:
                layer_groups.append(({}, delta.tombstones))
                continue
            delta_items = yield from cloud.resilient.dynamodb.scan(
                shard_table_names(table, shards)[shard])
            report.scanned_items += len(delta_items)
            layer_groups.append((_group_by_key(delta_items),
                                 delta.tombstones))

        keys = set(base_groups)
        for groups, _ in layer_groups:
            keys.update(groups)
        entries = []
        for key in sorted(keys):
            base_map = reference_merge_items(base_groups.get(key, []), kind)
            layers = [(reference_merge_items(groups.get(key, []), kind),
                       tombstones)
                      for groups, tombstones in layer_groups]
            payloads = overlay_payloads(base_map, layers)
            for uri in sorted(payloads):
                payload = payloads[uri]
                if kind == "presence":
                    entries.append(IndexEntry(key=key, uri=uri))
                elif kind == "paths":
                    entries.append(IndexEntry(key=key, uri=uri,
                                              paths=tuple(payload)))
                else:
                    entries.append(IndexEntry(key=key, uri=uri,
                                              ids=tuple(payload)))
        if entries:
            stats = yield from store.write_entries(new_table, entries)
            report.entries_written += len(entries)
            report.puts += stats.puts
            report.items += stats.items
            report.batches += stats.batches
            report.payload_bytes += stats.payload_bytes
        yield from coordinator.ledger.record(
            unit_id, batch_entries_hash({logical: entries}))
