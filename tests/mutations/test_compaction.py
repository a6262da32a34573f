"""Online compaction: fold-correctness, crash/resume, policy.

The compactor's contract: folding the delta chain into a fresh base
epoch changes *nothing observable* — queries return byte-identical
results before and after — while an interrupted pass commits nothing
and a resumed pass replays only the units the compaction ledger is
missing, rewriting byte-identical items (content-addressed keys).
"""

import pytest

from repro.config import ScaleProfile
from repro.engine.evaluator import evaluate_query
from repro.mutations import CompactionPolicy
from repro.query.workload import workload_query
from repro.store import expand_physical
from repro.store.sharding import shard_table_names
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

from tests.mutations.test_live import fresh_live, make_increment

pytestmark = pytest.mark.ingest


def execution_fingerprint(warehouse, live, names=("q2", "q6")):
    """Observable query behaviour, byte-level (result bytes included)."""
    rows = []
    for name in names:
        e = warehouse.run_query(workload_query(name), live)
        rows.append((name, e.docs_from_index, tuple(e.per_pattern_docs),
                     e.documents_fetched, e.docs_with_results,
                     e.result_rows, e.result_bytes))
    return rows


def table_snapshot(cloud, tables, shards):
    """Byte-level content of every shard table behind ``tables``."""
    snapshot = {}
    for logical in sorted(tables):
        for shard_table in shard_table_names(tables[logical], shards):
            snapshot[shard_table] = sorted(
                (item.hash_key, item.range_key,
                 tuple(sorted((name, tuple(values))
                              for name, values in item.attributes.items())))
                for item in cloud.dynamodb.table(shard_table).all_items())
    return snapshot


def mutate(warehouse, live):
    """The shared mutation schedule: two adds and a delete."""
    warehouse.add_documents(live, make_increment(1), config={"loaders": 2})
    warehouse.delete_documents(live, [warehouse.corpus.documents[0].uri])
    warehouse.add_documents(live, make_increment(2), config={"loaders": 2})


def test_compaction_preserves_query_results_byte_identically():
    warehouse, live = fresh_live()
    mutate(warehouse, live)
    assert len(live.deltas) == 3
    before = execution_fingerprint(warehouse, live)
    from_epoch = live.record.epoch

    report = warehouse.compact_index(live)
    assert report.committed and not report.interrupted
    assert report.folded_seqs == (1, 2, 3)
    assert report.units_done == report.units_total
    assert report.digest  # the new epoch carries a content digest
    assert report.cost_tied_out
    assert live.record.epoch == from_epoch + 1
    assert live.deltas == []

    after = execution_fingerprint(warehouse, live)
    assert after == before
    # And the answers are still the ground truth.
    for name in ("q2", "q6"):
        direct = evaluate_query(workload_query(name),
                                warehouse.corpus.documents)
        row = dict((r[0], r[5]) for r in after)
        assert row[name] == len(direct)


def test_compaction_reduces_per_query_read_amplification():
    warehouse, live = fresh_live()
    mutate(warehouse, live)
    layered = warehouse.run_query(workload_query("q6"), live)
    warehouse.compact_index(live)
    folded = warehouse.run_query(workload_query("q6"), live)
    # One layer instead of base + 3 deltas: strictly fewer billed gets.
    assert folded.index_gets < layered.index_gets


def test_interrupted_compaction_commits_nothing_and_resumes():
    twin_args = dict(strategy="LUI", deployment={"shards": 2})
    straight_wh, straight = fresh_live(**twin_args)
    mutate(straight_wh, straight)
    crashed_wh, crashed = fresh_live(**twin_args)
    mutate(crashed_wh, crashed)

    clean = straight_wh.compact_index(straight)
    assert clean.committed
    assert clean.units_total == len(straight.strategy.logical_tables) * 2

    # Crash after one unit: nothing flips, readers keep the old chain.
    partial = crashed_wh.compact_index(crashed, max_units=1)
    assert partial.interrupted and not partial.committed
    assert partial.units_done == 1
    assert crashed.record.epoch == 1
    assert len(crashed.deltas) == 3
    for name in ("q2", "q6"):
        direct = evaluate_query(workload_query(name),
                                crashed_wh.corpus.documents)
        e = crashed_wh.run_query(workload_query(name), crashed)
        assert e.result_rows == len(direct), name

    # Resume: the ledger replay skips the finished unit, the flip
    # lands, and the folded tables are byte-identical to the
    # uninterrupted twin's.
    resumed = crashed_wh.compact_index(crashed)
    assert resumed.committed
    assert resumed.units_skipped == 1
    assert resumed.units_done == resumed.units_total - 1
    assert crashed.record.epoch == 2
    assert resumed.digest == clean.digest
    assert (table_snapshot(crashed_wh.cloud, crashed.record.tables, 2)
            == table_snapshot(straight_wh.cloud, straight.record.tables, 2))


def test_delta_published_between_crash_and_resume_survives():
    """The resumed pass folds the pinned chain, not the grown one.

    Units completed before the interruption were folded without the
    newly published delta, so the resume must neither skip-fold it
    (losing acknowledged writes in already-completed shards) nor drop
    it from the live head when it commits.
    """
    warehouse, live = fresh_live(deployment={"shards": 2})
    mutate(warehouse, live)
    partial = warehouse.compact_index(live, max_units=1)
    assert partial.interrupted and not partial.committed

    warehouse.add_documents(live, make_increment(3), config={"loaders": 2})

    resumed = warehouse.compact_index(live)
    assert resumed.committed
    assert resumed.folded_seqs == (1, 2, 3)     # the pinned chain only
    assert [d.seq for d in live.deltas] == [4]  # the newcomer survives
    assert live.deltas[0].base_epoch == live.record.epoch
    for name in ("q2", "q6"):
        direct = evaluate_query(workload_query(name),
                                warehouse.corpus.documents)
        e = warehouse.run_query(workload_query(name), live)
        assert e.result_rows == len(direct), name


def test_interrupted_pass_is_accounted_in_the_ingestion_report():
    """Writes billed by a partial pass appear in the golden accounting."""
    warehouse, live = fresh_live(deployment={"shards": 2})
    mutate(warehouse, live)
    partial = warehouse.compact_index(live, max_units=1)
    assert partial.interrupted and partial.puts > 0
    resumed = warehouse.compact_index(live)
    report = live.ingestion_report()
    assert [c.interrupted for c in report.compactions] == [True, False]
    assert report.puts == (sum(d.puts for d in report.deltas)
                           + partial.puts + resumed.puts)


def test_fold_uses_base_epochs_own_shard_routing():
    """A base epoch predating a reshard folds under its own routing.

    The committed record's ``shards`` metadata — not the attaching
    deployment's store config — names the base epoch's physical shard
    tables; the new epoch and the deltas use the current config.
    """
    warehouse, live = fresh_live()  # base epoch laid out at shards=1
    warehouse.deployment = warehouse.deployment.override(shards=2)
    warehouse.store_config = warehouse.deployment.store_config
    handle = warehouse.live_index(live.name)
    assert handle.record.shards == 1

    warehouse.add_documents(handle, make_increment(1),
                            config={"loaders": 2})
    report = warehouse.compact_index(handle)
    assert report.committed
    assert handle.record.shards == 2  # the fold re-sharded the base
    for name in ("q2", "q6"):
        direct = evaluate_query(workload_query(name),
                                warehouse.corpus.documents)
        e = warehouse.run_query(workload_query(name), handle)
        assert e.result_rows == len(direct), name


def test_compaction_policy_thresholds():
    class FakeDelta:
        def __init__(self, documents):
            self.documents = documents

    policy = CompactionPolicy(max_deltas=3)
    assert not policy.should_compact([])
    assert not policy.should_compact([FakeDelta(5)] * 2)
    assert policy.should_compact([FakeDelta(5)] * 3)

    by_docs = CompactionPolicy(max_deltas=99, max_documents=10)
    assert not by_docs.should_compact([FakeDelta(4)])
    assert by_docs.should_compact([FakeDelta(4), FakeDelta(6)])


def test_compaction_retire_drops_superseded_tables():
    warehouse, live = fresh_live()
    mutate(warehouse, live)
    old_tables = set(live.record.tables.values())
    delta_tables = {table for delta in live.deltas
                    for table in delta.tables.values()}
    assert delta_tables
    report = warehouse.compact_index(live, retire=True)
    assert report.committed
    remaining = set(warehouse.cloud.dynamodb.table_names())
    for doomed in old_tables | delta_tables:
        for shard_table in shard_table_names(doomed, 1):
            assert shard_table not in remaining
    # The new epoch still answers correctly.
    direct = evaluate_query(workload_query("q6"),
                            warehouse.corpus.documents)
    e = warehouse.run_query(workload_query("q6"), live)
    assert e.result_rows == len(direct)


def test_compacting_an_empty_chain_is_a_noop():
    warehouse, live = fresh_live()
    report = warehouse.compact_index(live)
    assert not report.committed and not report.interrupted
    assert report.folded_seqs == ()
    assert live.record.epoch == 1


def test_sequence_numbers_survive_compaction():
    """Deltas published after a compaction never reuse folded seqs."""
    warehouse, live = fresh_live()
    warehouse.add_documents(live, make_increment(1), config={"loaders": 2})
    warehouse.compact_index(live)
    report = warehouse.add_documents(live, make_increment(2),
                                     config={"loaders": 2})
    assert report.seq == 2  # not 1 again
    assert report.base_epoch == live.record.epoch


@pytest.mark.parametrize("logical, pick", [
    ("lui", lambda values: len(values[0]) - 1),  # an ID blob's last byte
    ("lup", lambda values: 1),                   # inside a label path
])
def test_compaction_refuses_to_launder_corruption(logical, pick):
    """A flipped bit in a scanned item must not be rewritten under a
    freshly stamped, valid checksum: the fold raises before the unit
    writes, the pass stays uncommitted, and a resume after repair
    commits what an undamaged twin commits."""
    from repro.errors import IntegrityError
    from repro.indexing.checksums import CHECKSUM_ATTR

    twin_wh, twin = fresh_live(strategy="2LUPI")
    mutate(twin_wh, twin)
    clean = twin_wh.compact_index(twin)

    warehouse, live = fresh_live(strategy="2LUPI")
    mutate(warehouse, live)
    before = execution_fingerprint(warehouse, live)
    db = warehouse.cloud.dynamodb
    table = shard_table_names(live.record.tables[logical], 1)[0]
    item = next(item for item in db.table(table).all_items()
                if item.hash_key == "ename")
    uri = next(name for name in item.attributes if name != CHECKSUM_ATTR)
    assert db.corrupt_attribute(table, item.hash_key, item.range_key, uri,
                                byte_index=pick(item.attributes[uri]))

    with pytest.raises(IntegrityError, match="checksum mismatch in " + table):
        warehouse.compact_index(live)
    assert live.record.epoch == 1 and len(live.deltas) == 3
    new_table = "idx-2lupi-{}-e2".format(logical)
    assert db.table(new_table).all_items() == []  # nothing laundered
    assert execution_fingerprint(warehouse, live) == before

    # Repair (put the original item back), then resume.
    db.table(table)._items[item.hash_key][item.range_key] = item
    resumed = warehouse.compact_index(live)
    assert resumed.committed and live.record.epoch == 2
    assert resumed.digest == clean.digest
    assert (table_snapshot(warehouse.cloud, live.record.tables, 1)
            == table_snapshot(twin_wh.cloud, twin.record.tables, 1))
