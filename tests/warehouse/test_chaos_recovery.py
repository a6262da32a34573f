"""Lease-lapse recovery through the full warehouse pipeline (§3).

The unit-level crash test (``test_fault_tolerance.py``) drives workers
by hand; here the *warehouse itself* orchestrates the failure story:
a :class:`~repro.faults.FaultPlan` kills a loader instance mid-build,
the LeaseKeeper's lease lapses, SQS redelivers, and the replacement
instance launched by the build driver finishes the job — producing an
index logically identical to a crash-free run.
"""

import pytest

from repro.cloud import CloudProvider
from repro.config import ScaleProfile
from repro.faults import FaultPlan
from repro.faults.scenarios import index_snapshot
from repro.warehouse import Warehouse
from repro.warehouse.messages import LOADER_QUEUE
from repro.xmark import generate_corpus

DOCUMENTS = 12
SEED = 23


def build(plan):
    corpus = generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED))
    cloud = CloudProvider(fault_plan=plan)
    # Short visibility so the lapsed lease redelivers quickly.
    warehouse = Warehouse(cloud, deployment={"visibility_timeout": 5.0})
    warehouse.upload_corpus(corpus)
    built = warehouse.build_index("LU", loaders=2, batch_size=2)
    return cloud, warehouse, built


def test_injected_worker_death_is_recovered_by_redelivery():
    plan = FaultPlan(seed=5).crash(role="loader", after_s=0.5, worker=0)
    baseline_cloud, baseline_wh, baseline_built = build(None)
    chaos_cloud, chaos_wh, chaos_built = build(plan)

    # The crash actually happened: one instance died, at least one of
    # its in-flight messages lapsed and was redelivered...
    crashed = [i for i in chaos_cloud.ec2.instances() if i.crashed]
    assert len(crashed) == 1
    assert chaos_cloud.sqs.redelivered_count(LOADER_QUEUE) >= 1
    # ...and a replacement was launched beyond the planned fleet.
    assert len(chaos_cloud.ec2.instances()) == 3
    assert len(baseline_cloud.ec2.instances()) == 2

    # Every message was eventually acknowledged.
    assert chaos_cloud.sqs.approximate_depth(LOADER_QUEUE) == 0
    assert chaos_cloud.sqs.in_flight_count(LOADER_QUEUE) == 0

    # The recovered index is logically identical to the crash-free one:
    # the redelivered batches rewrote content, never changed it.
    assert (index_snapshot(chaos_wh, chaos_built)
            == index_snapshot(baseline_wh, baseline_built))


def test_crash_free_plan_changes_nothing():
    """A fault plan with no crashes leaves the build byte-identical in
    what matters: same fleet size, no redeliveries, same index."""
    plan = FaultPlan(seed=5)  # empty plan, but resilience layer active
    baseline_cloud, baseline_wh, baseline_built = build(None)
    chaos_cloud, chaos_wh, chaos_built = build(plan)

    assert len(chaos_cloud.ec2.instances()) == 2
    assert chaos_cloud.sqs.redelivered_count(LOADER_QUEUE) == 0
    assert (index_snapshot(chaos_wh, chaos_built)
            == index_snapshot(baseline_wh, baseline_built))


def test_recovery_bills_the_extra_work():
    """Redone work is not free: the chaos run meters at least as many
    DynamoDB writes and SQS requests as the clean run."""
    plan = FaultPlan(seed=5).crash(role="loader", after_s=0.5, worker=0)
    baseline_cloud, _, _ = build(None)
    chaos_cloud, _, _ = build(plan)
    for service, operation in (("dynamodb", "put"), ("sqs", None)):
        assert (chaos_cloud.meter.request_count(service, operation)
                >= baseline_cloud.meter.request_count(service, operation))


def build_checkpointed(plan):
    corpus = generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED))
    cloud = CloudProvider(fault_plan=plan)
    warehouse = Warehouse(cloud, deployment={"visibility_timeout": 5.0})
    warehouse.upload_corpus(corpus)
    _, record = warehouse.build_index_checkpointed("LU", loaders=2, batch_size=2)
    return cloud, record


def test_checkpointed_build_honours_the_plans_loader_crash():
    """Both builds run their loaders through one fleet, so the plan's
    loader crash lands on the checkpointed build too — and content
    addressing plus the ledger make the recovered epoch identical."""
    plan = FaultPlan(seed=5).crash(role="loader", after_s=0.5, worker=0)
    baseline_cloud, baseline_record = build_checkpointed(None)
    chaos_cloud, chaos_record = build_checkpointed(plan)

    assert [i.crashed for i in chaos_cloud.ec2.instances()] \
        == [True, False, False]
    assert chaos_cloud.sqs.redelivered_count(LOADER_QUEUE) >= 1
    assert not any(i.running for i in chaos_cloud.ec2.instances())
    assert len(baseline_cloud.ec2.instances()) == 2
    assert chaos_record.digest == baseline_record.digest
