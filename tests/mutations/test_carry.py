"""Carried whole: which scanned items a compaction writes again as they
stand, and that carrying never skips the ``#crc`` check."""

import pytest

from repro.cloud.dynamodb import DynamoItem
from repro.errors import IntegrityError
from repro.indexing.checksums import CHECKSUM_ATTR, item_checksum
from repro.indexing.entries import IndexEntry
from repro.indexing.mapper import DynamoIndexStore
from repro.store.sharding import shard_table_names

from tests.mutations.test_fold_identity import fresh_live, mutate

pytestmark = pytest.mark.ingest


def stamped(key, attributes):
    """A hand-made item with a valid stamp, attributes in given order."""
    attributes = dict(attributes)
    attributes[CHECKSUM_ATTR] = (item_checksum(key, attributes),)
    return DynamoItem(key, "r-" + key, attributes)


def test_only_a_packer_ordered_stamped_single_item_is_held_whole():
    packer = DynamoIndexStore(None, range_key_mode="content")
    packed, = packer._pack_items([IndexEntry("kw", "a.xml", ("/x",)),
                                  IndexEntry("kw", "b.xml", ("/y",))])
    items = [
        packed,
        # Out of the packer's order: URIs descending.
        stamped("ko", [("b.xml", ("/y",)), ("a.xml", ("/x",))]),
        # One key split over two items.
        stamped("ks", [("a.xml", ("/x",))]),
        DynamoItem("ks", "r-ks-2", {"b.xml": ("/y",), CHECKSUM_ATTR: (
            item_checksum("ks", {"b.xml": ("/y",)}),)}),
        # No checksum vouches for it.
        DynamoItem("ku", "r-ku", {"a.xml": ("/x",)}),
    ]
    items.sort(key=lambda item: (item.hash_key, item.range_key))
    by_key, whole = DynamoIndexStore._regroup("t", items, "paths")
    assert set(by_key) == {"kw", "ko", "ks", "ku"}
    assert whole == {"kw": packed}


def test_a_tombstoned_whole_key_is_packed_again_not_carried(monkeypatch):
    warehouse, live = fresh_live("LUP")
    mutate(warehouse, live, 70, steps=2)
    assert warehouse.compact_index(live).committed
    victim = warehouse.corpus.documents[0].uri
    carried = []
    carry = DynamoIndexStore._carry

    def counting(self, item, attributes):
        taken = carry(self, item, attributes)
        if taken:
            carried.append(item)
        return taken

    monkeypatch.setattr(DynamoIndexStore, "_carry", counting)
    warehouse.delete_documents(live, [victim])
    assert warehouse.compact_index(live).committed
    assert carried
    assert all(victim not in item.attributes for item in carried)


def test_a_flipped_bit_under_a_carried_key_raises_before_the_unit_writes():
    warehouse, live = fresh_live("LUI")
    mutate(warehouse, live, 80, steps=2)
    assert warehouse.compact_index(live).committed
    mutate(warehouse, live, 81, steps=1)
    record = live.record
    db = warehouse.cloud.dynamodb
    table, = shard_table_names(record.tables["lui"], record.shards)
    items = db.table(table).all_items()
    _, whole = DynamoIndexStore._regroup(table, items, "ids")
    touched = {item.hash_key for delta in live.deltas
               for delta_table in delta.tables.values()
               for name in db.table_names() if name.startswith(delta_table)
               for item in db.table(name).all_items()}
    key = next(key for key in sorted(whole) if key not in touched)
    item = whole[key]
    uri = next(name for name in item.attributes if name != CHECKSUM_ATTR)
    assert db.corrupt_attribute(table, key, item.range_key, uri)
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        warehouse.compact_index(live)
    assert live.record.epoch == record.epoch
    assert live.deltas
