"""Stored once: a DynamoDB index store holds each distinct value once.

``DynamoIndexStore`` interns every hash key and attribute-value tuple
(a path tuple, a ``(blob,)`` or ``()``) as it closes an item, so equal
values across the store's items are one object; the table lives on the
store, so it dies with the index that store wrote.  Items are slotted,
and every size they report is the formula's, whether born sized or not.
"""

import pytest

from repro.cloud.dynamodb import DynamoItem, attribute_size, key_size
from repro.config import ScaleProfile
from repro.indexing.checksums import CHECKSUM_ATTR
from repro.store.sharding import shard_table_names
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

from tests.mutations.test_live import fresh_live, make_increment


def _formula(item):
    size = key_size(item.hash_key) + sum(
        attribute_size(name, values)
        for name, values in item.attributes.items())
    if item.range_key is not None:
        size += key_size(item.range_key)
    return size


def _items(cloud, tables):
    return [item for table in tables
            for item in cloud.dynamodb.table(table).all_items()]


def _stored_values(items):
    """Every hash key and interned value tuple the items hold (the
    checksum attribute is the store's stamp, not a posting's value)."""
    return [item.hash_key for item in items] + [
        values for item in items
        for name, values in item.attributes.items()
        if name != CHECKSUM_ATTR]


def _one_object_each(values):
    """Equal values -> the ids of the objects holding them."""
    ids = {}
    for value in values:
        ids.setdefault(value, set()).add(id(value))
    return ids


@pytest.fixture(scope="module")
def built():
    warehouse = Warehouse()
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=40, document_bytes=4096, seed=41)))
    return warehouse, warehouse.build_index("2LUPI")


def test_equal_values_in_one_store_are_one_object(built):
    warehouse, index = built
    items = _items(warehouse.cloud, index.physical_tables)
    values = _stored_values(items)
    ids = _one_object_each(values)
    # Both tables share their keys, and many URIs share one value.
    assert len(ids) < len(values) / 2
    assert all(len(held) == 1 for held in ids.values())
    assert set(index.store.base_store._interned) == set(ids)


def test_every_size_is_the_formula_born_sized_or_not(built):
    warehouse, index = built
    for table in index.physical_tables:
        stored = warehouse.cloud.dynamodb.table(table)
        items = stored.all_items()
        assert items
        for item in items:
            twin = DynamoItem(item.hash_key, item.range_key,
                              dict(item.attributes))
            assert item.size_bytes == twin.size_bytes == _formula(item)
        assert stored.raw_bytes() == sum(map(_formula, items))


def test_an_item_has_no_instance_dict(built):
    warehouse, index = built
    born_sized = _items(warehouse.cloud, index.physical_tables)[0]
    plain = DynamoItem("k", None, {"a.xml": ()})
    for item in (born_sized, plain):
        assert not hasattr(item, "__dict__")
        with pytest.raises(AttributeError):
            item.scratch = 1
    assert plain.size_bytes == _formula(plain)


def test_a_live_epochs_table_holds_only_its_own_values():
    """After several compaction rounds the current epoch's store interns
    exactly the distinct values its tables hold: nothing of the epochs
    and deltas it replaced."""
    warehouse, live = fresh_live()
    for batch in (1, 2, 3):
        warehouse.add_documents(live, make_increment(batch), loaders=2)
        warehouse.delete_documents(
            live, [warehouse.corpus.documents[batch].uri])
        report = warehouse.compact_index(live)
        assert report.committed
    tables = [shard_table
              for table in live.record.tables.values()
              for shard_table in shard_table_names(table,
                                                   live.record.shards)]
    items = _items(warehouse.cloud, tables)
    ids = _one_object_each(_stored_values(items))
    assert all(len(held) == 1 for held in ids.values())
    assert set(live.base_store.base_store._interned) == set(ids)
