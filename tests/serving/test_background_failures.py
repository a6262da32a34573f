"""A background process that fails under ``serve()`` fails the run.

``serve(background=[...])`` waits for its mutation feeds and compaction
tickers before it reports.  One that has already raised by then must
re-raise, not be dropped: otherwise the report reads 8 of 8 completed
while a compaction silently never committed.
"""

import pytest

from repro.config import ScaleProfile
from repro.errors import IntegrityError
from repro.indexing.checksums import CHECKSUM_ATTR
from repro.mutations import CompactionPolicy, compaction_ticker
from repro.store.sharding import shard_table_names
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

from tests.mutations.test_live import make_increment

pytestmark = [pytest.mark.serving, pytest.mark.ingest]

TRAFFIC = {"arrival": "poisson", "rate_qps": 2.0, "queries": 8, "seed": 7}


def _live(documents=16):
    warehouse = Warehouse(deployment={"loaders": 2, "batch_size": 4,
                                      "workers": 2})
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=documents, seed=77)))
    _, record = warehouse.build_index_checkpointed("LUI")
    return warehouse, warehouse.live_index(record.name)


def test_a_background_process_that_already_raised_fails_serve():
    warehouse, live = _live()

    def failing():
        yield warehouse.cloud.env.timeout(1.0)
        raise IntegrityError("background failure")

    with pytest.raises(IntegrityError, match="background failure"):
        warehouse.serve(TRAFFIC, live, background=[failing])


def test_a_compaction_refusing_corruption_under_serve_fails_serve():
    """The fold's ``#crc`` check raises inside a ticker: the run fails
    with it, and nothing was committed."""
    warehouse, live = _live()
    warehouse.add_documents(live, make_increment(1), config={"loaders": 2})
    db = warehouse.cloud.dynamodb
    table = shard_table_names(live.record.tables["lui"], 1)[0]
    item = next(item for item in db.table(table).all_items()
                if item.hash_key == "ename")
    uri = next(name for name in item.attributes if name != CHECKSUM_ATTR)
    assert db.corrupt_attribute(table, item.hash_key, item.range_key, uri,
                                byte_index=1)
    ticker = compaction_ticker(live, CompactionPolicy(max_deltas=1),
                               interval_s=1.0, max_ticks=1)
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        warehouse.serve(TRAFFIC, live, background=[ticker])
    assert live.compactions == [] and live.record.epoch == 1
