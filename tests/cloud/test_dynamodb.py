"""Unit tests for the simulated DynamoDB key-value store."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudProvider
from repro.cloud.dynamodb import (BATCH_GET_LIMIT, BATCH_PUT_LIMIT,
                                  DynamoItem, MAX_HASH_KEY_BYTES,
                                  MAX_ITEM_BYTES, MAX_RANGE_KEY_BYTES,
                                  attribute_size, value_size)
from repro.errors import (ItemTooLarge, NoSuchTable, TableAlreadyExists,
                          ValidationError)


@pytest.fixture
def db(cloud):
    cloud.dynamodb.create_table("idx")
    return cloud.dynamodb


def _item(hash_key, range_key, uri="doc.xml", values=("",)):
    return DynamoItem(hash_key=hash_key, range_key=range_key,
                      attributes={uri: tuple(values)})


def test_duplicate_table_rejected(db):
    with pytest.raises(TableAlreadyExists):
        db.create_table("idx")


def test_unknown_table_raises(cloud):
    def scenario():
        yield from cloud.dynamodb.get("nope", "k")
    with pytest.raises(NoSuchTable):
        cloud.env.run_process(scenario())


def test_put_get_round_trip(cloud, db):
    def scenario():
        yield from db.put("idx", _item("ename", "u1"))
        items = yield from db.get("idx", "ename")
        return items
    items = cloud.env.run_process(scenario())
    assert len(items) == 1
    assert items[0].attributes == {"doc.xml": ("",)}


def test_get_unknown_key_returns_empty(cloud, db):
    def scenario():
        return (yield from db.get("idx", "missing"))
    assert cloud.env.run_process(scenario()) == []


def test_same_primary_key_replaces(cloud, db):
    """§6: "the new item completely replaces the existing one"."""
    def scenario():
        yield from db.put("idx", _item("k", "same-range", "a.xml"))
        yield from db.put("idx", _item("k", "same-range", "b.xml"))
        return (yield from db.get("idx", "k"))
    items = cloud.env.run_process(scenario())
    assert len(items) == 1
    assert "b.xml" in items[0].attributes


def test_distinct_range_keys_coexist(cloud, db):
    """The UUID-range-key trick: same hash key, different range keys."""
    def scenario():
        yield from db.put("idx", _item("k", "uuid-1", "a.xml"))
        yield from db.put("idx", _item("k", "uuid-2", "b.xml"))
        return (yield from db.get("idx", "k"))
    items = cloud.env.run_process(scenario())
    assert len(items) == 2


def test_range_key_condition(cloud, db):
    def scenario():
        yield from db.put("idx", _item("k", "a-1"))
        yield from db.put("idx", _item("k", "b-2"))
        return (yield from db.get("idx", "k",
                                  condition=lambda rk: rk.startswith("a")))
    items = cloud.env.run_process(scenario())
    assert [item.range_key for item in items] == ["a-1"]


def test_missing_range_key_rejected(cloud, db):
    bad = DynamoItem(hash_key="k", range_key=None, attributes={})

    def scenario():
        yield from db.put("idx", bad)
    with pytest.raises(ValidationError):
        cloud.env.run_process(scenario())


def test_item_size_limit_enforced(cloud, db):
    huge = DynamoItem(hash_key="k", range_key="r",
                      attributes={"uri": (b"x" * (MAX_ITEM_BYTES + 1),)})

    def scenario():
        yield from db.put("idx", huge)
    with pytest.raises(ItemTooLarge):
        cloud.env.run_process(scenario())


def test_item_size_counts_keys_names_values():
    item = DynamoItem(hash_key="hh", range_key="rrr",
                      attributes={"name": ("ab", b"cde")})
    assert item.size_bytes == 2 + 3 + 4 + 2 + 3


def _fresh_size(item):
    """``size_bytes`` recomputed from the fields, memo ignored."""
    size = len(item.hash_key.encode("utf-8"))
    if item.range_key is not None:
        size += len(item.range_key.encode("utf-8"))
    for name, values in item.attributes.items():
        size += len(name.encode("utf-8")) + sum(map(value_size, values))
    return size


#: A seeded UUID range key and a key of each kind: ASCII, a non-ASCII
#: word key, and ASCII and non-ASCII hash keys at the limit, counted
#: in encoded bytes (``é`` is two).
UUID_KEY = "060e74c3-aa00-4523-a0b8-ff81f16dfa7f"
KEYS = ["ename", "wcafé", "k" * MAX_HASH_KEY_BYTES,
        "é" * (MAX_HASH_KEY_BYTES // 2)]


@pytest.mark.parametrize("hash_key", KEYS,
                         ids=["ascii", "non-ascii", "ascii-at-limit",
                              "non-ascii-at-limit"])
def test_born_size_counts_key_bytes(hash_key):
    attributes = {"vangogh.xml": ("/epainting/ename",)}
    item = DynamoItem.sized(hash_key, UUID_KEY, attributes, attribute_size(
        "vangogh.xml", attributes["vangogh.xml"]))
    assert item.size_bytes == _fresh_size(item) == (
        len(hash_key.encode("utf-8")) + len(UUID_KEY.encode("utf-8"))
        + len(b"vangogh.xml/epainting/ename"))


@pytest.mark.parametrize("hash_key, range_key", [
    (key, UUID_KEY) for key in KEYS] + [
    ("k", "r" * MAX_RANGE_KEY_BYTES),
    ("k", "é" * (MAX_RANGE_KEY_BYTES // 2))],
    ids=["ascii", "non-ascii", "ascii-at-limit", "non-ascii-at-limit",
         "ascii-range-at-limit", "non-ascii-range-at-limit"])
def test_key_limits_count_encoded_bytes(cloud, db, hash_key, range_key):
    def put(item):
        def scenario():
            yield from db.put("idx", item)
        cloud.env.run_process(scenario())

    put(_item(hash_key, range_key))  # within the limits (or at them)
    # One more byte over either limit is refused, whatever the
    # character count.
    for longer in (_item(hash_key + "x" * (
            MAX_HASH_KEY_BYTES + 1 - len(hash_key.encode("utf-8"))),
            range_key), _item(hash_key, range_key + "x" * (
                MAX_RANGE_KEY_BYTES + 1
                - len(range_key.encode("utf-8"))))):
        with pytest.raises(ValidationError):
            put(longer)


_texts = st.text(max_size=12)
_values = st.lists(st.one_of(_texts, st.binary(min_size=1, max_size=12)),
                   min_size=1, max_size=4).map(tuple)
_items = st.builds(DynamoItem, hash_key=_texts,
                   range_key=st.one_of(st.none(), _texts),
                   attributes=st.dictionaries(_texts, _values, max_size=4))


@given(item=_items, new_hash=_texts)
def test_memoised_size_is_a_pure_function_of_the_fields(item, new_hash):
    twin = DynamoItem(item.hash_key, item.range_key, dict(item.attributes))
    unsized = repr(item)
    assert item.size_bytes == _fresh_size(item)
    assert item.size_bytes == _fresh_size(item)  # the memoised read
    # The memo is not a field: ==, repr and the field list ignore it.
    assert item == twin and twin == item
    assert repr(item) == repr(twin) == unsized
    assert [f.name for f in dataclasses.fields(item)] \
        == ["hash_key", "range_key", "attributes"]
    assert set(dataclasses.asdict(item)) \
        == {"hash_key", "range_key", "attributes"}
    # A replaced item is a new item and sizes itself afresh.
    moved = dataclasses.replace(item, hash_key=new_hash)
    assert moved.size_bytes == _fresh_size(moved)
    assert item.size_bytes == _fresh_size(item)


class _HashableMap(dict):
    def __hash__(self):
        return hash(tuple(sorted(self.items())))


def test_memoised_size_stays_out_of_the_hash():
    one = DynamoItem("h", "r", _HashableMap(a=("x",)))
    two = DynamoItem("h", "r", _HashableMap(a=("x",)))
    assert one.size_bytes == 4  # memoise one side only
    assert hash(one) == hash(two) and one == two


@settings(deadline=None, max_examples=40)
@given(items=st.lists(_items, min_size=1, max_size=8),
       byte_index=st.integers(0, 64), bit=st.integers(0, 7),
       pick=st.integers(0, 7))
def test_raw_bytes_tracks_damage_and_loss(items, byte_index, bit, pick):
    db = CloudProvider().dynamodb
    db.create_table("idx")

    def scenario():
        for item in items:
            if item.range_key is None:
                item = dataclasses.replace(item, range_key="r")
            yield from db.put("idx", item)
    db._env.run_process(scenario())
    table = db.table("idx")

    def stored():
        return sum(_fresh_size(item) for item in table.all_items())

    assert table.raw_bytes() == stored()  # sizes memoised by the puts
    victim = table.all_items()[pick % table.item_count()]
    for attr in victim.attributes:
        db.corrupt_attribute("idx", victim.hash_key, victim.range_key,
                             attr, byte_index=byte_index, bit=bit)
    assert table.raw_bytes() == stored()
    db.drop_partition("idx", victim.hash_key)
    assert table.raw_bytes() == stored()
    assert db.raw_bytes(["idx"]) == stored()


def test_batch_put_limit(cloud, db):
    items = [_item("k", "r{}".format(i)) for i in range(BATCH_PUT_LIMIT + 1)]

    def scenario():
        yield from db.batch_put("idx", items)
    with pytest.raises(ValidationError):
        cloud.env.run_process(scenario())


def test_batch_put_bills_per_row(cloud, db):
    items = [_item("k", "r{}".format(i)) for i in range(10)]

    def scenario():
        yield from db.batch_put("idx", items)
    cloud.env.run_process(scenario())
    assert cloud.meter.request_count("dynamodb", "put") == 10


def test_batch_get(cloud, db):
    def scenario():
        yield from db.put("idx", _item("k1", "r"))
        yield from db.put("idx", _item("k2", "r"))
        return (yield from db.batch_get("idx", ["k1", "k2", "k3"]))
    result = cloud.env.run_process(scenario())
    assert len(result["k1"]) == 1
    assert len(result["k2"]) == 1
    assert result["k3"] == []


def test_batch_get_limit(cloud, db):
    keys = ["k{}".format(i) for i in range(BATCH_GET_LIMIT + 1)]

    def scenario():
        yield from db.batch_get("idx", keys)
    with pytest.raises(ValidationError):
        cloud.env.run_process(scenario())


def test_write_throughput_serializes_writers(cloud, db):
    """Concurrent writers queue on provisioned capacity (Figure 10)."""
    env = cloud.env
    payload = b"x" * 51200  # 50 KB per item
    finishes = []

    def writer(i):
        item = DynamoItem("k", "r{}".format(i), {"uri": (payload,)})
        yield from db.put("idx", item)
        finishes.append(env.now)

    for i in range(4):
        env.process(writer(i))
    env.run()
    gaps = [b - a for a, b in zip(finishes, finishes[1:])]
    assert all(gap > 0.1 for gap in gaps), \
        "writers should serialize on the write limiter: {}".format(finishes)


def test_storage_accounting(cloud, db):
    def scenario():
        yield from db.put("idx", _item("k", "r", values=("payload",)))
    cloud.env.run_process(scenario())
    assert db.raw_bytes(["idx"]) > 0
    assert db.overhead_bytes(["idx"]) == \
        cloud.profile.dynamodb_overhead_bytes_per_item
    assert db.stored_bytes(["idx"]) == \
        db.raw_bytes(["idx"]) + db.overhead_bytes(["idx"])


def test_delete_table(cloud, db):
    db.delete_table("idx")
    with pytest.raises(NoSuchTable):
        db.table("idx")
