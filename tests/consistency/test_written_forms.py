"""Written forms: every digest takes the packer's canonical forms.

A content-addressed store records the canonical form of each item it
packs; the epoch commit (a checkpointed build's, a compaction's) and
the delta flip digest their scan with those forms instead of
serialising each item again.  The contract checked here: each recorded
digest equals a fresh ``items_digest`` over a plain scan with nothing
handed over — also when an item was replaced by damage, or written by
an earlier interrupted pass — and no store keeps a form after its
digest took them.
"""

import pytest

from repro.config import ScaleProfile
from repro.consistency import build
from repro.consistency.build import items_digest
from repro.indexing.checksums import CHECKSUM_ATTR
from repro.store.sharding import shard_table_names
from repro.warehouse.warehouse import BuiltIndex
from repro.xmark import generate_corpus

from tests.consistency.test_checkpoint_resume import (BATCH_SIZE,
                                                      DOCUMENTS,
                                                      INTERRUPT_AFTER_S,
                                                      SEED,
                                                      fresh_warehouse)
from tests.mutations.test_compaction import mutate
from tests.mutations.test_live import fresh_live, make_increment


def plain_digest(warehouse, tables, shards):
    """``items_digest`` over a plain scan of ``tables``, in the
    commit's order, with no written form handed over."""
    db = warehouse.cloud.dynamodb
    return items_digest([item for logical in sorted(tables)
                         for table in shard_table_names(tables[logical],
                                                        shards)
                         for item in db.table(table).all_items()])


@pytest.fixture
def serialised(monkeypatch):
    """How many items the digests serialised afresh."""
    calls = [0]
    canonical = build.canonical_item_bytes

    def counting(hash_key, attributes):
        calls[0] += 1
        return canonical(hash_key, attributes)

    monkeypatch.setattr(build, "canonical_item_bytes", counting)
    return calls


def assert_nothing_held(warehouse, live):
    """No store behind the live index keeps a written form."""
    assert live.base_store.take_written() == {}
    for _, store in live.delta_layers():
        assert store is None or store.take_written() == {}
    assert warehouse._coordinators == {}


@pytest.mark.ingest
@pytest.mark.parametrize("shards", [1, 2])
def test_compaction_digest_takes_the_written_forms(shards, serialised):
    warehouse, live = fresh_live(strategy="2LUPI",
                                 deployment={"shards": shards})
    mutate(warehouse, live)
    report = warehouse.compact_index(live)
    assert report.committed
    assert serialised[0] == 0
    assert report.digest == plain_digest(warehouse, live.record.tables,
                                         shards)
    assert_nothing_held(warehouse, live)


@pytest.mark.ingest
def test_item_damaged_before_the_commit_scan_is_serialised_afresh(
        monkeypatch, serialised):
    """Damage replaces the stored object, so its recorded form no
    longer applies: the one replaced item is serialised from what the
    scan read, the digest is the damaged table's, and a scrub still
    flags the item."""
    warehouse, live = fresh_live(strategy="2LUPI")
    mutate(warehouse, live)
    db = warehouse.cloud.dynamodb
    commit = build.BuildCoordinator.commit
    damaged = []

    def damage_then_commit(coordinator):
        table = coordinator.plan.table_names["lup"]
        item = db.table(table).all_items()[0]
        uri = next(name for name in item.attributes
                   if name != CHECKSUM_ATTR)
        assert db.corrupt_attribute(table, item.hash_key, item.range_key,
                                    uri, byte_index=1)
        damaged.append(item)
        record = yield from commit(coordinator)
        return record

    monkeypatch.setattr(build.BuildCoordinator, "commit", damage_then_commit)
    report = warehouse.compact_index(live)
    assert report.committed and len(damaged) == 1
    assert serialised[0] == 1
    assert report.digest == plain_digest(warehouse, live.record.tables, 1)
    assert_nothing_held(warehouse, live)

    built = BuiltIndex(strategy=live.strategy, store=live.base_store,
                       table_names=dict(live.record.tables), report=None)
    scrub = warehouse.scrub_index(built, live.name, live.record.epoch,
                                  repair=False)
    assert scrub.checksum_failures == 1
    assert damaged[0].hash_key in "\n".join(scrub.details)
    # A repair writes through the base store and no digest follows it.
    repair = warehouse.scrub_index(built, live.name, live.record.epoch)
    assert repair.repairs > 0
    assert live.base_store.take_written() == {}


@pytest.mark.ingest
def test_resumed_compaction_serialises_only_the_first_pass_items(
        serialised):
    warehouse, live = fresh_live(strategy="LUI", deployment={"shards": 2})
    mutate(warehouse, live)
    partial = warehouse.compact_index(live, max_units=1)
    assert partial.interrupted and partial.items > 0
    resumed = warehouse.compact_index(live)
    assert resumed.committed and resumed.units_skipped == 1
    # The resumed pass's store packed every other item; the first
    # pass's store, and the forms it recorded, are gone.
    assert serialised[0] == partial.items
    assert resumed.digest == plain_digest(warehouse, live.record.tables, 2)
    assert_nothing_held(warehouse, live)


@pytest.mark.scrub
def test_resumed_build_digest_matches_a_plain_scan(serialised):
    corpus = generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED))
    reference = fresh_warehouse(corpus)
    _, ref_record = reference.build_index_checkpointed(
        "LUP", config={"loaders": 2, "batch_size": BATCH_SIZE})
    assert serialised[0] == 0

    crashed = fresh_warehouse(corpus)
    plan = crashed.plan_build("LUP", config={"batch_size": BATCH_SIZE,
                                             "loaders": 2})
    first = crashed.run_build(plan, interrupt_after_s=INTERRUPT_AFTER_S)
    assert first.interrupted
    result, record = crashed.resume_build(plan)
    assert result.committed
    # Items only the interrupted run wrote are serialised afresh.
    assert 0 < serialised[0] < sum(len(crashed.cloud.dynamodb.table(
        table).all_items()) for table in plan.table_names.values())
    assert record.digest == ref_record.digest == plain_digest(
        crashed, plan.table_names, 1)
    assert result.store.take_written() == {}
    assert crashed._coordinators == {}


@pytest.mark.ingest
def test_delta_digests_take_the_written_forms(serialised):
    warehouse, live = fresh_live(strategy="2LUPI", deployment={"shards": 2})
    deltas = []
    for batch in (1, 2, 3):
        deltas.append(warehouse.add_documents(
            live, make_increment(batch), config={"loaders": 2}))
        assert_nothing_held(warehouse, live)
        if batch > 1:
            assert warehouse.compact_index(live).committed
            assert_nothing_held(warehouse, live)
    assert serialised[0] == 0
    for report in deltas:  # compaction keeps the folded delta tables
        assert report.digest == plain_digest(warehouse, report.tables, 2)
