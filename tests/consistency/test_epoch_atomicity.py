"""Epoch-flip atomicity: a reader racing a rebuild never sees a
mixed-epoch manifest record.

A background process polls the committed pointer continuously while a
full rebuild (plan -> run -> commit) of the same index name executes.
Every observation must be an internally consistent record: committed
status, all physical tables belonging to the record's own epoch, and
epochs that only ever move forward.
"""

import pytest

from repro.config import ScaleProfile
from repro.consistency import Manifest
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

POLL_INTERVAL_S = 0.3


@pytest.mark.scrub
def test_reader_racing_rebuild_never_sees_mixed_epochs():
    warehouse = Warehouse()
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=12, seed=7)))
    warehouse.build_index_checkpointed(
        "LU", loaders=2, batch_size=2)

    manifest = Manifest(warehouse.cloud.resilient.dynamodb)
    observations = []
    stop = [False]

    def reader():
        while not stop[0]:
            record = yield from manifest.committed("LU")
            if record is not None:
                observations.append(record)
            yield warehouse.cloud.env.timeout(POLL_INTERVAL_S)

    # The reader keeps polling across every phase the rebuild runs.
    warehouse.cloud.env.process(reader(), name="epoch-reader")
    plan = warehouse.plan_build("LU", batch_size=2, loaders=2)
    result = warehouse.run_build(plan)
    assert result.complete
    record = warehouse.commit_build(plan)
    assert record.epoch == 2
    stop[0] = True

    def final_read():
        final = yield from manifest.committed("LU")
        yield warehouse.cloud.env.timeout(POLL_INTERVAL_S)
        return final
    final = warehouse.cloud.env.run_process(final_read(), name="final-read")

    assert observations, "the reader never got to run"
    # Epoch 1 was observable while epoch 2 was being built.
    assert any(obs.epoch == 1 for obs in observations)
    assert final.epoch == 2
    epochs_seen = []
    for obs in observations + [final]:
        # Never a partial flip: the record is always complete and
        # self-consistent, its tables all scoped to its own epoch.
        assert obs.status == "committed"
        assert obs.epoch in (1, 2)
        suffix = "-e{}".format(obs.epoch)
        assert all(physical.endswith(suffix)
                   for physical in obs.tables.values())
        assert obs.ledger_table.endswith(suffix)
        assert obs.digest
        assert obs.batches == len(plan.batches)
        epochs_seen.append(obs.epoch)
    # The committed pointer only ever moves forward.
    assert epochs_seen == sorted(epochs_seen)
    # Same corpus, content-addressed items: both epochs carry the same
    # content digest, so the flip changed *where*, never *what*.
    digests = {obs.epoch: obs.digest for obs in observations + [final]}
    if len(digests) == 2:
        assert digests[1] == digests[2]
