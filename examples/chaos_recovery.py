#!/usr/bin/env python
"""Chaos recovery: kill a loader mid-build, get the same index back.

Run with::

    python examples/chaos_recovery.py

The paper (§3) leans on AWS's queue leases for fault tolerance: if an
instance dies while processing a message, the message's lease lapses
and SQS redelivers it to another instance.  This example makes that
concrete in the simulator — a seeded :class:`FaultPlan` crashes one
loader instance mid-build and sprinkles transient S3 errors on top,
and the warehouse still produces the exact index and query answers of
a fault-free run, at a measurably higher (but bounded) cost.
"""

from repro.faults import FaultPlan
from repro.faults.scenarios import index_snapshot
from repro.warehouse import Warehouse
from repro.warehouse.monitoring import resource_report
from repro.telemetry import counter_dict
from repro.cloud.provider import CloudProvider
from repro.config import ScaleProfile
from repro.xmark import generate_corpus
from repro import workload_query


def build_and_query(cloud, corpus):
    """Upload, build the LU index, answer q6; return (index, answer)."""
    warehouse = Warehouse(cloud, deployment={"visibility_timeout": 6.0})
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index("LU", loaders=2, batch_size=4)
    execution = warehouse.run_query(workload_query("q6"), index)
    return warehouse, index, execution


def main() -> None:
    corpus = generate_corpus(ScaleProfile(documents=20, seed=11))

    # A fault-free run establishes ground truth.
    calm, calm_index, calm_answer = build_and_query(
        CloudProvider(), corpus)

    # The chaos run: one loader dies 0.5 simulated seconds into the
    # build, and 5% of S3 requests fail transiently.  Everything is
    # deterministic in the plan's seed.
    plan = (FaultPlan(seed=42)
            .crash(role="loader", after_s=0.5, worker=0)
            .transient_errors("s3", rate=0.05))
    stormy, stormy_index, stormy_answer = build_and_query(
        CloudProvider(fault_plan=plan), corpus)

    registry = stormy.cloud.telemetry.registry
    faults = counter_dict(registry, "faults_injected_total")
    retries = counter_dict(registry, "retries_total")
    print("chaos run: faults {}, retries {}, {} messages redelivered"
          .format(faults or "{}", retries or "{}",
                  stormy.cloud.sqs.redelivered_count("loader-requests")))

    # Invariant 1: the logical index content is identical.
    assert index_snapshot(calm, calm_index) \
        == index_snapshot(stormy, stormy_index)
    print("index content identical despite the crash")

    # Invariant 2: the query answer is identical.
    assert calm_answer.result_rows == stormy_answer.result_rows
    assert calm_answer.result_bytes == stormy_answer.result_bytes
    print("q6 answer identical: {} rows, {} bytes".format(
        stormy_answer.result_rows, stormy_answer.result_bytes))

    # The monitoring report shows the recovery's fingerprints.
    print()
    print(resource_report(stormy).render())


if __name__ == "__main__":
    main()
