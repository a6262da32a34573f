"""Integrity scrubber: detection and targeted repair of damage at rest."""

import pytest

from repro.config import ScaleProfile
from repro.consistency.build import META_BUCKET, inventory_key
from repro.errors import IntegrityError
from repro.faults import FaultPlan
from repro.faults.corruption import CorruptionMonkey
from repro.faults.scenarios import physical_snapshot
from repro.store import IndexCache
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

DOCUMENTS = 12
SEED = 7


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED))


def checkpointed(corpus, strategy):
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    built, record = warehouse.build_index_checkpointed(
        strategy, loaders=2, batch_size=4)
    return warehouse, built, record


@pytest.mark.scrub
def test_clean_index_scrubs_clean(corpus):
    warehouse, built, record = checkpointed(corpus, "LUP")
    report = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert report.clean
    assert report.items_scanned > 0
    assert report.checksum_failures == 0
    assert report.invariant_violations == 0
    assert report.missing_entries == 0
    assert "status=clean" in report.summary_line()


@pytest.mark.scrub
def test_corrupt_items_detected_and_repaired(corpus):
    warehouse, built, record = checkpointed(corpus, "LU")
    pristine = physical_snapshot(warehouse, built)
    plan = FaultPlan(seed=SEED).corrupt_item(table=0, count=3)
    trail = CorruptionMonkey(warehouse.cloud,
                             seed=SEED).damage_index(built, plan.damage)
    assert len(trail) == 3

    detect = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert not detect.clean
    # 100% of the injected corruptions surface as checksum failures.
    assert detect.checksum_failures == 3
    # Detection quarantines the table for degraded querying.
    assert warehouse.health.suspect_tables()

    repair = warehouse.scrub_index(built, record.name, record.epoch)
    assert repair.repaired
    assert repair.documents_reextracted > 0
    verify = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert verify.clean
    # Repair restored the table byte-for-byte, and health cleared.
    assert physical_snapshot(warehouse, built) == pristine
    assert not warehouse.health.suspect_tables()


@pytest.mark.scrub
def test_a_repair_discards_the_cached_keys_it_rewrites(corpus, monkeypatch):
    """A repair writes into a live table that readers may have cached:
    its write-through discard stays."""
    warehouse = Warehouse(deployment={"cache_bytes": 1 << 20})
    warehouse.upload_corpus(corpus)
    built, record = warehouse.build_index_checkpointed(
        "LU", loaders=2, batch_size=4)
    plan = FaultPlan(seed=SEED).corrupt_item(table=0, count=3)
    CorruptionMonkey(warehouse.cloud, seed=SEED).damage_index(
        built, plan.damage)
    discarded = []
    real = IndexCache.discard

    def spy(cache, table, key, *args):
        discarded.append((table, key))
        return real(cache, table, key, *args)

    monkeypatch.setattr(IndexCache, "discard", spy)
    repair = warehouse.scrub_index(built, record.name, record.epoch)
    assert repair.repaired and repair.repairs
    assert discarded
    assert {table for table, _ in discarded} <= set(built.physical_tables)


@pytest.mark.scrub
def test_dropped_partition_detected_and_repaired(corpus):
    warehouse, built, record = checkpointed(corpus, "LUP")
    pristine = physical_snapshot(warehouse, built)
    plan = FaultPlan(seed=SEED).drop_table_partition(table=1, count=2)
    trail = CorruptionMonkey(warehouse.cloud,
                             seed=SEED).damage_index(built, plan.damage)
    assert len(trail) == 2

    detect = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert not detect.clean
    # Lost partitions are invisible to checksums; the committed
    # inventory is what exposes them.
    assert detect.missing_entries > 0

    repair = warehouse.scrub_index(built, record.name, record.epoch)
    assert repair.repaired
    assert repair.repairs >= detect.missing_entries
    verify = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert verify.clean
    assert physical_snapshot(warehouse, built) == pristine


def _rewrite_inventory(warehouse, record, logical, data):
    warehouse.cloud.env.run_process(warehouse.cloud.s3.put(
        META_BUCKET, inventory_key(record.name, record.epoch, logical),
        data))


@pytest.mark.scrub
@pytest.mark.parametrize("data", [b"\xff\xfe{", b'{"k": 5}'],
                         ids=["not-utf8", "not-lists"])
def test_a_damaged_inventory_fails_the_scrub_typed(corpus, data):
    warehouse, built, record = checkpointed(corpus, "LUP")
    _rewrite_inventory(warehouse, record, "lup", data)
    with pytest.raises(IntegrityError, match=inventory_key(
            record.name, record.epoch, "lup")):
        warehouse.scrub_index(built, record.name, record.epoch,
                              repair=False)


def _lose_three_partitions(corpus):
    warehouse, built, record = checkpointed(corpus, "LUP")
    plan = FaultPlan(seed=SEED).drop_table_partition(table=0, count=3)
    CorruptionMonkey(warehouse.cloud, seed=SEED).damage_index(
        built, plan.damage)
    return warehouse, built, record


@pytest.mark.scrub
def test_lost_partitions_show_against_the_true_inventory(corpus):
    warehouse, built, record = _lose_three_partitions(corpus)
    report = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert report.missing_entries == 12


@pytest.mark.scrub
@pytest.mark.xfail(strict=True, reason=(
    "an inventory that still decodes is trusted: catching one rewritten "
    "to {} needs a digest on the control-plane record"))
def test_an_emptied_inventory_still_exposes_lost_partitions(corpus):
    warehouse, built, record = _lose_three_partitions(corpus)
    _rewrite_inventory(warehouse, record, "lup", b"{}")
    emptied = warehouse.scrub_index(built, record.name, record.epoch,
                                    repair=False)
    assert not emptied.clean


@pytest.mark.scrub
def test_combined_damage_on_2lupi(corpus):
    warehouse, built, record = checkpointed(corpus, "2LUPI")
    pristine = physical_snapshot(warehouse, built)
    plan = (FaultPlan(seed=SEED)
            .corrupt_item(table=0, count=2)
            .drop_table_partition(table=len(built.physical_tables) - 1))
    CorruptionMonkey(warehouse.cloud, seed=SEED).damage_index(
        built, plan.damage)

    detect = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert detect.checksum_failures == 2
    assert detect.missing_entries > 0
    repair = warehouse.scrub_index(built, record.name, record.epoch)
    assert repair.repaired
    verify = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=False)
    assert verify.clean
    assert physical_snapshot(warehouse, built) == pristine


@pytest.mark.scrub
def test_scrub_cost_is_priced(corpus):
    from repro.costs.estimator import scrub_cost
    warehouse, built, record = checkpointed(corpus, "LU")
    plan = FaultPlan(seed=SEED).corrupt_item(table=0, count=1)
    CorruptionMonkey(warehouse.cloud, seed=SEED).damage_index(
        built, plan.damage)
    warehouse.scrub_index(built, record.name, record.epoch)
    breakdown = scrub_cost(warehouse)
    # Scanning and repairing real tables costs real (tiny) money.
    assert breakdown.total > 0.0
