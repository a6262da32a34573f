"""Unit tests for the simulated SimpleDB (the [8] baseline store)."""

import pytest

from repro.cloud.simpledb import (MAX_ATTRIBUTES_PER_ITEM, MAX_VALUE_BYTES,
                                  SimpleDBItem)
from repro.errors import (AttributeTooLarge, NoSuchTable, TableAlreadyExists,
                          TooManyAttributes, ValidationError)


@pytest.fixture
def sdb(cloud):
    cloud.simpledb.create_domain("idx")
    return cloud.simpledb


def test_duplicate_domain_rejected(sdb):
    with pytest.raises(TableAlreadyExists):
        sdb.create_domain("idx")


def test_put_get_round_trip(cloud, sdb):
    item = SimpleDBItem(name="ename#1", attributes=(("a.xml", "/ea/eb"),))

    def scenario():
        yield from sdb.put("idx", item)
        return (yield from sdb.get("idx", "ename#1"))
    fetched = cloud.env.run_process(scenario())
    assert fetched.attributes == (("a.xml", "/ea/eb"),)


def test_memoised_item_size_stays_out_of_eq_hash_and_repr():
    import dataclasses
    item = SimpleDBItem(name="né", attributes=(("a.xml", "/ea"), ("b", "")))
    twin = SimpleDBItem(name="né", attributes=(("a.xml", "/ea"), ("b", "")))
    assert item.size_bytes == 3 + 5 + 3 + 1 == item.size_bytes
    assert item == twin and hash(item) == hash(twin)
    assert repr(item) == repr(twin)
    longer = dataclasses.replace(item, name="longer")
    assert longer.size_bytes == item.size_bytes + 3


def test_get_missing_returns_none(cloud, sdb):
    def scenario():
        return (yield from sdb.get("idx", "nope"))
    assert cloud.env.run_process(scenario()) is None


def test_value_size_limit(cloud, sdb):
    item = SimpleDBItem(name="k", attributes=(
        ("uri", "x" * (MAX_VALUE_BYTES + 1)),))

    def scenario():
        yield from sdb.put("idx", item)
    with pytest.raises(AttributeTooLarge):
        cloud.env.run_process(scenario())


def test_binary_values_rejected(cloud, sdb):
    item = SimpleDBItem(name="k", attributes=(("uri", b"binary"),))

    def scenario():
        yield from sdb.put("idx", item)
    with pytest.raises(ValidationError):
        cloud.env.run_process(scenario())


def test_attribute_count_limit(cloud, sdb):
    pairs = tuple(("u{}".format(i), "v")
                  for i in range(MAX_ATTRIBUTES_PER_ITEM + 1))
    item = SimpleDBItem(name="k", attributes=pairs)

    def scenario():
        yield from sdb.put("idx", item)
    with pytest.raises(TooManyAttributes):
        cloud.env.run_process(scenario())


def test_put_merges_attributes_by_default(cloud, sdb):
    def scenario():
        yield from sdb.put("idx", SimpleDBItem("k", (("a", "1"),)))
        yield from sdb.put("idx", SimpleDBItem("k", (("b", "2"),)))
        return (yield from sdb.get("idx", "k"))
    item = cloud.env.run_process(scenario())
    assert item.attributes == (("a", "1"), ("b", "2"))


def test_put_replace_overwrites(cloud, sdb):
    def scenario():
        yield from sdb.put("idx", SimpleDBItem("k", (("a", "1"),)))
        yield from sdb.put("idx", SimpleDBItem("k", (("b", "2"),)),
                           replace=True)
        return (yield from sdb.get("idx", "k"))
    item = cloud.env.run_process(scenario())
    assert item.attributes == (("b", "2"),)


def test_select_prefix(cloud, sdb):
    def scenario():
        for name in ("ename#1", "ename#2", "eother#1"):
            yield from sdb.put("idx", SimpleDBItem(name, (("u", "v"),)))
        return (yield from sdb.select_prefix("idx", "ename#"))
    items = cloud.env.run_process(scenario())
    assert [item.name for item in items] == ["ename#1", "ename#2"]


def test_batch_put_limit(cloud, sdb):
    items = [SimpleDBItem("k{}".format(i), (("u", "v"),)) for i in range(26)]

    def scenario():
        yield from sdb.batch_put("idx", items)
    with pytest.raises(ValidationError):
        cloud.env.run_process(scenario())


def test_slower_than_dynamodb(cloud, sdb):
    """The §8.4 premise: SimpleDB answers slower than DynamoDB."""
    cloud.dynamodb.create_table("ddx", has_range_key=False)
    env = cloud.env

    def timed(gen):
        start = env.now
        yield from gen
        return env.now - start

    from repro.cloud.dynamodb import DynamoItem
    payload = "x" * 900
    sdb_time = env.run_process(timed(sdb.put(
        "idx", SimpleDBItem("k", (("uri", payload),)))))
    ddb_time = env.run_process(timed(cloud.dynamodb.put(
        "ddx", DynamoItem("k", None, {"uri": (payload,)}))))
    assert sdb_time > ddb_time


def test_storage_accounting(cloud, sdb):
    def scenario():
        yield from sdb.put("idx", SimpleDBItem("k", (("uri", "value"),)))
    cloud.env.run_process(scenario())
    assert sdb.raw_bytes(["idx"]) == len("k") + len("uri") + len("value")
    assert sdb.overhead_bytes(["idx"]) == \
        cloud.profile.simpledb_overhead_bytes_per_item


def test_delete_domain(cloud, sdb):
    sdb.delete_domain("idx")
    with pytest.raises(NoSuchTable):
        sdb.domain("idx")
