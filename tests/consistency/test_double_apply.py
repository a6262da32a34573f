"""Regression test for the classic double-apply window.

A worker that crashes *after* uploading its batch and recording the
ledger entry but *before* deleting the SQS message leaves the message
to be redelivered.  The redelivered batch must be skipped via the
ledger — applying it twice must not change a single stored item.
"""

import pytest

from repro.config import ScaleProfile
from repro.consistency.build import items_digest
from repro.warehouse import Warehouse
from repro.warehouse.messages import LOADER_QUEUE
from repro.xmark import generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(ScaleProfile(documents=8, seed=11))


def table_state(warehouse, plan):
    state = {}
    for logical in sorted(plan.table_names):
        physical = plan.table_names[logical]
        items = warehouse.cloud.dynamodb.table(physical).all_items()
        state[logical] = (len(items), items_digest(list(items)))
    return state


@pytest.mark.scrub
def test_redelivered_batch_is_skipped_not_reapplied(corpus):
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    plan = warehouse.plan_build("LUP", batch_size=4, loaders=2)
    first = warehouse.run_build(plan)
    assert first.complete and first.skipped_batches == 0
    before = table_state(warehouse, plan)

    # Simulate the crash window: the batch's upload and ledger entry
    # landed, but its SQS delete never happened — the message comes
    # back and a worker receives it again.
    def redeliver():
        yield from warehouse.cloud.resilient.sqs.send(
            LOADER_QUEUE, plan.batches[0])
    warehouse.cloud.env.run_process(redeliver(), name="redeliver")

    second = warehouse.run_build(plan)
    assert second.skipped_batches == 1
    assert second.complete
    # Entry counts and content digests are unchanged — the redelivery
    # had zero effect on the stored index.
    assert table_state(warehouse, plan) == before
    record = warehouse.commit_build(plan)
    assert record.status == "committed"
