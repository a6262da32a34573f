"""A live index in a degradation chain verifies its reads like a built one.

:class:`~repro.consistency.degradation.DegradedIndexChain` switches read
verification on for every candidate store, so silent corruption
surfaces as a fallback rather than a wrong answer.  A
:class:`~repro.mutations.live.LiveIndex` is a drop-in ``BuiltIndex``:
its merging store must pass the switch to every layer store it reads
through, including the ones a later publication or compaction attaches.
"""

import pytest

from repro.config import ScaleProfile
from repro.consistency import DegradedIndexChain
from repro.faults.scenarios import _workload_answers
from repro.indexing.checksums import CHECKSUM_ATTR
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

from tests.mutations.test_live import make_increment

pytestmark = pytest.mark.ingest

QUERIES = ["q{}".format(number) for number in range(1, 11)]
#: One stored 2LUPI path item whose damage changes q1-q10's answers
#: without failing to decode.
DAMAGED_KEY = "aid person3"


def _deployed():
    warehouse = Warehouse()
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=12, seed=7)))
    primary, _ = warehouse.build_index_checkpointed(
        "2LUPI", loaders=2, batch_size=4)
    fallback, _ = warehouse.build_index_checkpointed(
        "LU", loaders=2, batch_size=4)
    return warehouse, primary, fallback


def _layer_stores(live):
    return [live.base_store] + [store for _, store in live.delta_layers()
                                if store is not None]


def test_a_damaged_live_candidate_falls_back():
    warehouse, primary, fallback = _deployed()
    queries = [workload_query(name) for name in QUERIES]
    baseline = _workload_answers(
        warehouse, warehouse.run_workload(queries, primary))
    live = warehouse.live_index("2LUPI")
    db = warehouse.cloud.dynamodb
    table = primary.table_names["lup"]
    item = next(item for item in sorted(
        db.table(table).all_items(), key=lambda item: item.range_key)
        if item.hash_key == DAMAGED_KEY)
    uri = min(name for name in item.attributes if name != CHECKSUM_ATTR)
    assert db.corrupt_attribute(table, item.hash_key, item.range_key, uri)

    for candidate in (live, primary):
        report = warehouse.run_degraded_workload(queries,
                                                 [candidate, fallback])
        modes = [execution.index_mode for execution in report.executions]
        assert _workload_answers(warehouse, report) == baseline
        assert "LU" in modes, modes  # the damage was read and refused


def test_verification_reaches_layers_attached_later():
    warehouse, _, fallback = _deployed()
    live = warehouse.live_index("2LUPI")
    assert not live.store.verify_reads
    DegradedIndexChain(warehouse.cloud, [live, fallback],
                       warehouse._all_uris)
    assert live.store.verify_reads

    warehouse.add_documents(live, make_increment(1, documents=2), loaders=2)
    assert len(_layer_stores(live)) == 2
    assert all(store.verify_reads for store in _layer_stores(live))
    warehouse.compact_index(live)
    warehouse.add_documents(live, make_increment(2, documents=2), loaders=2)
    assert all(store.verify_reads for store in _layer_stores(live))

    live.store.verify_reads = False
    assert not any(store.verify_reads for store in _layer_stores(live))
