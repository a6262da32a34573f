"""Unit tests for the hash-partitioning math (``repro.store.sharding``)."""

import zlib

import pytest

from repro.indexing.mapper import DynamoIndexStore
from repro.store import (SHARD_SEPARATOR, StoreRouter, shard_of,
                         shard_table_names)

pytestmark = pytest.mark.store


def test_shard_of_is_deterministic_crc32():
    """Routing uses a seeded-independent hash, never ``hash()``."""
    for key in ("ename", "aid", "w-gold", "k%7C odd"):
        expected = zlib.crc32(key.encode("utf-8")) % 5
        assert shard_of(key, 5) == expected
        assert shard_of(key, 5) == shard_of(key, 5)


def test_shard_of_single_shard_is_zero():
    """One shard (or fewer) always routes to ordinal 0."""
    assert shard_of("anything", 1) == 0
    assert shard_of("anything", 0) == 0


def test_shard_of_covers_all_ordinals():
    """A spread of keys lands on every shard of a small ring."""
    ordinals = {shard_of("key-{}".format(i), 4) for i in range(200)}
    assert ordinals == {0, 1, 2, 3}


def test_shard_table_names_unsharded_is_identity():
    """shards=1 keeps the seed's table name — no suffix at all."""
    assert shard_table_names("idx-lu-lu-1", 1) == ["idx-lu-lu-1"]


def test_shard_table_names_sharded_suffixes():
    """N shards produce ``.s0`` .. ``.s{N-1}`` suffixed tables."""
    names = shard_table_names("idx-lup-lup-2", 3)
    assert names == ["idx-lup-lup-2" + SHARD_SEPARATOR + str(i)
                     for i in range(3)]


def test_router_routes_key_to_named_shard(cloud):
    """``shard_table_for`` agrees with ``shard_of`` on the shard ring."""
    router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                         cloud.telemetry, shards=4)
    for key in ("ename", "aid", "w-gold"):
        expected = router.shard_tables("idx")[shard_of(key, 4)]
        assert router.shard_table_for("idx", key) == expected


def test_shard_tables_come_from_the_store(cloud):
    """Consumers expand a logical table through the store they hold."""
    base = DynamoIndexStore(cloud.dynamodb, seed=1)
    sharded = StoreRouter(base, cloud.telemetry, shards=2)
    assert sharded.shard_tables("idx") == \
        ["idx" + SHARD_SEPARATOR + "0", "idx" + SHARD_SEPARATOR + "1"]
    # Plain stores (and passthrough routers) name the table itself.
    assert base.shard_tables("idx") == ["idx"]
    assert StoreRouter(base, cloud.telemetry).shard_tables("idx") == ["idx"]
