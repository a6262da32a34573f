"""Checkpointed builds: interruption, resume, and byte-identity.

The headline invariant: a build interrupted mid-flight and resumed is
*byte-identical* — same content digest, same physical items — to the
same build run without interruption.
"""

import pytest

from repro.config import ScaleProfile
from repro.errors import BuildStateError
from repro.faults.scenarios import physical_snapshot
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

DOCUMENTS = 12
SEED = 7
BATCH_SIZE = 2
INTERRUPT_AFTER_S = 2.0


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED))


def fresh_warehouse(corpus):
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    return warehouse


@pytest.mark.scrub
def test_plan_is_fixed_composition(corpus):
    warehouse = fresh_warehouse(corpus)
    plan = warehouse.plan_build("LUP", config={"batch_size": BATCH_SIZE,
                                               "loaders": 2})
    assert plan.epoch == 1
    assert plan.documents == DOCUMENTS
    assert len(plan.batches) == (DOCUMENTS + BATCH_SIZE - 1) // BATCH_SIZE
    # Every document appears exactly once, in corpus order.
    uris = [uri for batch in plan.batches for uri in batch.uris]
    assert uris == [doc.uri for doc in corpus.documents]
    # Epoch-scoped naming keeps rebuilds away from committed tables.
    assert all(physical.endswith("-e1")
               for physical in plan.table_names.values())
    assert plan.ledger_table.endswith("-e1")


@pytest.mark.scrub
def test_interrupted_resume_is_byte_identical(corpus):
    # Reference: the same plan run to completion without interruption.
    reference = fresh_warehouse(corpus)
    ref_built, ref_record = reference.build_index_checkpointed(
        "LUP", config={"loaders": 2, "batch_size": BATCH_SIZE})

    crashed = fresh_warehouse(corpus)
    plan = crashed.plan_build("LUP", config={"batch_size": BATCH_SIZE,
                                             "loaders": 2})
    first = crashed.run_build(plan, interrupt_after_s=INTERRUPT_AFTER_S)
    assert first.interrupted
    assert 0 < first.applied_batches < len(plan.batches)
    assert not first.complete
    # A partial epoch must never commit.
    with pytest.raises(BuildStateError):
        crashed.commit_build(plan)

    result, record = crashed.resume_build(plan)
    assert result.complete and result.committed
    assert record is not None and record.status == "committed"
    assert record.epoch == ref_record.epoch == 1
    assert record.digest == ref_record.digest
    built = crashed.built_index_from(plan, result)
    assert physical_snapshot(crashed, built) == \
        physical_snapshot(reference, ref_built)


@pytest.mark.scrub
def test_resume_reenqueues_only_missing_batches(corpus):
    warehouse = fresh_warehouse(corpus)
    plan = warehouse.plan_build("LU", config={"batch_size": BATCH_SIZE,
                                              "loaders": 2})
    first = warehouse.run_build(plan, interrupt_after_s=1.0)
    assert first.interrupted
    survived = first.applied_batches
    result, record = warehouse.resume_build(plan)
    # The resume only had to enqueue what the ledger was missing.
    assert result.enqueued == len(plan.batches) - survived
    assert result.applied_batches == len(plan.batches)
    assert record is not None


@pytest.mark.scrub
def test_build_report_describes_the_build_not_the_last_phase(corpus):
    warehouse = fresh_warehouse(corpus)
    plan = warehouse.plan_build("LU", config={"batch_size": BATCH_SIZE,
                                              "loaders": 2})
    warehouse.run_build(plan, interrupt_after_s=1.0)
    result, _ = warehouse.resume_build(plan)
    build_phase = warehouse.phases[-1]
    # Any later phase must not leak into the build's report.
    warehouse.run_workload([workload_query("q1")], None)
    report = warehouse.built_index_from(plan, result).report
    assert report.tag == build_phase.tag == "index-build:LU:e1"
    assert report.vm_hours == build_phase.vm_hours
    assert (report.instances, report.instance_type) == (2, "l")


@pytest.mark.scrub
def test_rebuild_gets_a_fresh_epoch(corpus):
    warehouse = fresh_warehouse(corpus)
    _, first = warehouse.build_index_checkpointed(
        "LU", config={"loaders": 2, "batch_size": BATCH_SIZE})
    _, second = warehouse.build_index_checkpointed(
        "LU", config={"loaders": 2, "batch_size": BATCH_SIZE})
    assert (first.epoch, second.epoch) == (1, 2)
    # Same corpus, content-addressed items: identical content digests.
    assert first.digest == second.digest
    assert set(first.tables.values()).isdisjoint(second.tables.values())
