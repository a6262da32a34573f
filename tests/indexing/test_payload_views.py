"""Read once per stored version: a key's payload map is a held view.

A backend store keeps, per (physical table, key, kind), the items it
last merged and a read-only view over their merged map, and hands that
very view out again while a read returns the very same item objects in
the same order.  Pinned here, on both backends: an unchanged key reads
as one view (point or batched), a corrupted item, a dropped partition
or a repair write makes the next read a new view, a view refuses
mutation, and ``verify_reads`` still checks every read.
"""

import pytest

from repro.cloud import CloudProvider
from repro.errors import IntegrityError
from repro.indexing.entries import IndexEntry
from repro.indexing.mapper import DynamoIndexStore, SimpleDBIndexStore
from repro.xmldb.ids import NodeID

ENTRIES = [
    IndexEntry(key="k", uri="a.xml", ids=(NodeID(1, 2, 1), NodeID(3, 4, 2))),
    IndexEntry(key="k", uri="b.xml", ids=(NodeID(2, 9, 1),)),
    IndexEntry(key="j", uri="a.xml", ids=(NodeID(5, 6, 1),)),
]


def _store(cloud, backend, **options):
    if backend == "dynamodb":
        store = DynamoIndexStore(cloud.dynamodb, seed=1, **options)
    else:
        store = SimpleDBIndexStore(cloud.simpledb, seed=1)
    store.create_table("idx")
    return store


def _run(cloud, generator):
    return cloud.env.run_process(generator)


def _write(cloud, store, entries=ENTRIES):
    def scenario():
        return (yield from store.write_entries("idx", entries))
    return _run(cloud, scenario())


def _read_key(cloud, store, key="k", kind="ids"):
    def scenario():
        return (yield from store.read_key("idx", key, kind))
    return _run(cloud, scenario())[0]


def _read_keys(cloud, store, keys=("k", "j"), kind="ids"):
    def scenario():
        return (yield from store.read_keys("idx", list(keys), kind))
    return _run(cloud, scenario())[0]


@pytest.mark.parametrize("backend", ["dynamodb", "simpledb"])
def test_an_unchanged_key_reads_as_one_view(backend):
    cloud = CloudProvider()
    store = _store(cloud, backend)
    _write(cloud, store)
    first = _read_key(cloud, store)
    assert _read_key(cloud, store) is first
    assert _read_keys(cloud, store)["k"] is first
    assert _read_keys(cloud, store)["j"] is _read_key(cloud, store, "j")
    assert first == {"a.xml": [NodeID(1, 2, 1), NodeID(3, 4, 2)],
                     "b.xml": [NodeID(2, 9, 1)]}
    # A kind is its own merge of the same items.
    presence = _read_key(cloud, store, kind="presence")
    assert presence is not first and dict(presence) == {
        "a.xml": None, "b.xml": None}
    assert _read_key(cloud, store, "ghost") is _read_key(cloud, store,
                                                         "ghost")
    # Every read is billed all the same.
    assert cloud.meter.request_count(
        backend, "get" if backend == "dynamodb" else "select") == 10


@pytest.mark.parametrize("backend", ["dynamodb", "simpledb"])
def test_a_view_refuses_mutation(backend):
    cloud = CloudProvider()
    store = _store(cloud, backend)
    _write(cloud, store)
    view = _read_key(cloud, store)
    with pytest.raises(TypeError):
        view["poison.xml"] = None
    with pytest.raises(TypeError):
        del view["a.xml"]
    for method in ("clear", "pop", "update", "setdefault"):
        assert not hasattr(view, method)
    assert sorted(view) == ["a.xml", "b.xml"]


def _corrupt(cloud):
    item = cloud.dynamodb.table("idx").all_items()[-1]
    assert cloud.dynamodb.corrupt_attribute(
        "idx", item.hash_key, item.range_key, "a.xml", byte_index=2)


def _drop(cloud):
    assert cloud.dynamodb.drop_partition("idx", "k")


def _repair(cloud, store):
    # Content-addressed items: the same postings again are the same
    # items, stored as new objects over the old ones.
    _write(cloud, store, ENTRIES[:2])


@pytest.mark.parametrize("damage", ["corrupt", "drop", "repair"])
def test_a_read_after_damage_returns_a_new_view(damage):
    cloud = CloudProvider()
    store = _store(cloud, "dynamodb", range_key_mode="content")
    _write(cloud, store)
    before = _read_key(cloud, store)
    untouched = _read_key(cloud, store, "j")
    if damage == "corrupt":
        _corrupt(cloud)
    elif damage == "drop":
        _drop(cloud)
    else:
        _repair(cloud, store)
    after = _read_key(cloud, store)
    assert after is not before
    assert _read_keys(cloud, store)["k"] is after
    if damage == "drop":
        assert dict(after) == {}
    elif damage == "repair":
        assert after == before
    assert _read_key(cloud, store, "j") is untouched


def test_verified_reads_check_every_read(monkeypatch):
    cloud = CloudProvider()
    store = _store(cloud, "dynamodb", range_key_mode="content")
    store.verify_reads = True
    _write(cloud, store)
    verified = []
    verify = store._verify_items

    def counting(physical_name, items):
        verified.append(len(items))
        return verify(physical_name, items)

    monkeypatch.setattr(store, "_verify_items", counting)
    first = _read_key(cloud, store)
    assert _read_key(cloud, store) is first
    _read_keys(cloud, store)
    assert len(verified) == 4
    _corrupt(cloud)
    with pytest.raises(IntegrityError):
        _read_key(cloud, store)
