"""Cache coherence across epochs, and scrubbing under sharding.

The two system-level guarantees the store layer owes the consistency
machinery:

- a manifest flip (``commit_build``) invalidates the shared read
  cache *for the flipped index's tables only* — no entry cached
  against the old epoch is ever served against the new one, while
  entries of unrelated indexes survive the flip untouched;
- the integrity scrubber still detects and repairs damage — and the
  cross-table invariants still aggregate correctly — when every
  logical table is hash-partitioned over several shard tables.
"""

import pytest

from repro.config import ScaleProfile
from repro.faults import FaultPlan
from repro.faults.corruption import CorruptionMonkey
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

pytestmark = pytest.mark.store

DOCUMENTS = 12
SEED = 7


@pytest.fixture(scope="module")
def corpus():
    """Small deterministic corpus shared by the module."""
    return generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED))


def _queries():
    """Two workload queries that exercise index reads."""
    return [workload_query("q1"), workload_query("q2")]


def test_manifest_flip_invalidates_the_cache(corpus):
    """Nothing cached before a flip survives into the new epoch."""
    warehouse = Warehouse(deployment={"cache_bytes": 256 * 1024})
    warehouse.upload_corpus(corpus)
    built1, rec1 = warehouse.build_index_checkpointed(
        "LUP", loaders=2, batch_size=4)
    cache = warehouse.index_cache

    warehouse.run_workload(_queries(), built1, workers=1,
                           tag="flip:cold")
    assert len(cache) > 0
    cold_gets = warehouse.cloud.meter.request_count(
        "dynamodb", "get", tag="flip:cold")

    report = warehouse.run_workload(_queries(), built1,
                                    workers=1, tag="flip:warm")
    warm_gets = warehouse.cloud.meter.request_count(
        "dynamodb", "get", tag="flip:warm")
    assert warm_gets < cold_gets
    assert sum(e.store_cache_hits for e in report.executions) > 0

    built2, rec2 = warehouse.build_index_checkpointed(
        "LUP", loaders=2, batch_size=4)
    assert rec2.epoch == rec1.epoch + 1
    # The flip emptied the cache of this index's entries (its old
    # epoch's tables were the only ones cached).
    assert len(cache) == 0
    assert cache.invalidations > 0

    # The first post-flip run pays full price again: no stale entry
    # from epoch 1 is served against epoch 2.
    warehouse.run_workload(_queries(), built2, workers=1,
                           tag="flip:after")
    after_gets = warehouse.cloud.meter.request_count(
        "dynamodb", "get", tag="flip:after")
    assert after_gets == cold_gets


def test_flip_spares_unrelated_table_entries(corpus):
    """Flipping one index must not evict another index's cache entries."""
    warehouse = Warehouse(deployment={"cache_bytes": 256 * 1024})
    warehouse.upload_corpus(corpus)
    built_lu, _ = warehouse.build_index_checkpointed(
        "LU", loaders=2, batch_size=4)
    built_lup, _ = warehouse.build_index_checkpointed(
        "LUP", loaders=2, batch_size=4)
    cache = warehouse.index_cache

    # Warm both indexes' entries.
    warehouse.run_workload(_queries(), built_lu, workers=1,
                           tag="spare:lu-cold")
    warehouse.run_workload(_queries(), built_lup, workers=1,
                           tag="spare:lup-cold")
    lu_tables = set(built_lu.table_names.values())
    lu_entries = sum(1 for (_, table, _, _) in cache._entries
                     if table in lu_tables)
    assert lu_entries > 0

    # Rebuild (flip) LUP only: its entries go, LU's all survive.
    warehouse.build_index_checkpointed(
        "LUP", loaders=2, batch_size=4)
    survivors = sum(1 for (_, table, _, _) in cache._entries
                    if table in lu_tables)
    assert survivors == lu_entries
    assert all(table in lu_tables
               for (_, table, _, _) in cache._entries)

    # And the surviving entries still serve hits: the warm LU run
    # costs fewer billed gets than its cold run did.
    cold_gets = warehouse.cloud.meter.request_count(
        "dynamodb", "get", tag="spare:lu-cold")
    warehouse.run_workload(_queries(), built_lu, workers=1,
                           tag="spare:lu-warm")
    warm_gets = warehouse.cloud.meter.request_count(
        "dynamodb", "get", tag="spare:lu-warm")
    assert warm_gets < cold_gets


def test_epoch_record_carries_shard_routing_metadata(corpus):
    """The committed manifest records how its epoch was partitioned."""
    warehouse = Warehouse(deployment={"shards": 2})
    warehouse.upload_corpus(corpus)
    _, record = warehouse.build_index_checkpointed(
        "LU", loaders=2, batch_size=4)
    assert record.shards == 2


def _sharded_snapshot(warehouse, built):
    """Byte-level content of every shard table (order-insensitive)."""
    cloud = warehouse.cloud
    snapshot = {}
    for logical in sorted(built.table_names):
        for shard_table in built.store.shard_tables(
                built.table_names[logical]):
            snapshot[shard_table] = sorted(
                (item.hash_key, item.range_key,
                 tuple(sorted((name, tuple(values))
                              for name, values in item.attributes.items())))
                for item in cloud.dynamodb.table(shard_table).all_items())
    return snapshot


def test_scrubber_repairs_damage_across_shard_tables(corpus):
    """2LUPI scrub detects + repairs with every logical table split in
    two — corruption in one shard, a dropped partition in another —
    and the cross-table invariants aggregate over all shards."""
    warehouse = Warehouse(deployment={"shards": 2})
    warehouse.upload_corpus(corpus)
    built, record = warehouse.build_index_checkpointed(
        "2LUPI", loaders=2, batch_size=4)
    shard_tables = [shard_table
                    for physical in built.table_names.values()
                    for shard_table in built.store.shard_tables(physical)]
    assert len(shard_tables) == 2 * len(built.table_names)
    pristine = _sharded_snapshot(warehouse, built)

    plan = (FaultPlan(seed=SEED)
            .corrupt_item(table=0, count=2)
            .drop_table_partition(table=len(shard_tables) - 1))
    trail = CorruptionMonkey(warehouse.cloud, seed=SEED).damage_index(
        built, plan.damage)
    assert trail  # damage landed on real shard tables

    detect = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert not detect.clean
    assert detect.checksum_failures == 2
    assert detect.missing_entries > 0

    repair = warehouse.scrub_index(built, record.name, record.epoch)
    assert repair.repaired

    verify = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert verify.clean
    assert verify.invariant_violations == 0
    assert _sharded_snapshot(warehouse, built) == pristine
