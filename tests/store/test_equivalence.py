"""Passthrough equivalence: the router must not change the seed's runs.

The warehouse now hands every store out behind a
:class:`~repro.store.router.StoreRouter`.  With the default
configuration (one shard, no cache) the acceptance bar is byte
identity: the same build + workload produces the *identical* sequence
of metered requests — same services, same operations, same simulated
timestamps, same tags — as a warehouse wired straight to the raw
stores.  Identical meter records imply identical billed costs, so this
is also the cost-equivalence check.
"""

import pytest

from repro.config import ScaleProfile
from repro.indexing.mapper import DynamoIndexStore
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.warehouse.warehouse import Warehouse as WarehouseClass
from repro.xmark import generate_corpus

pytestmark = pytest.mark.store

DOCUMENTS = 10
SEED = 5


def _pipeline(make_warehouse):
    """Upload → build LUP → run two queries; the run's full trace."""
    corpus = generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED))
    warehouse = make_warehouse()
    warehouse.upload_corpus(corpus)
    built = warehouse.build_index("LUP", loaders=2, batch_size=4)
    report = warehouse.run_workload(
        [workload_query("q1"), workload_query("q2")], built,
        workers=1)
    return warehouse.cloud.meter.records(), len(report.executions)


def _raw_make_store(self, backend, seed, range_key_mode="uuid", epoch=0):
    """The seed's store factory: no router, plain DynamoDB mapping."""
    assert backend == "dynamodb"
    return DynamoIndexStore(self.cloud.resilient.dynamodb, seed=seed,
                            range_key_mode=range_key_mode)


def test_default_router_is_byte_identical_to_raw_stores(monkeypatch):
    """Same seed, routed vs. unrouted: identical metered request trace."""
    routed = _pipeline(Warehouse)
    monkeypatch.setattr(WarehouseClass, "_make_store", _raw_make_store)
    raw = _pipeline(Warehouse)
    assert routed == raw


def test_explicit_default_config_matches_implicit():
    """The default ``shards`` and ``cache_bytes`` spelled out change
    nothing either."""
    implicit = _pipeline(Warehouse)
    explicit = _pipeline(
        lambda: Warehouse(deployment={"shards": 1, "cache_bytes": 0}))
    assert explicit == implicit


def test_active_config_still_returns_the_same_answers():
    """Sharding + caching change the bill, never the query results."""
    def uris(deployment):
        corpus = generate_corpus(ScaleProfile(documents=DOCUMENTS,
                                              seed=SEED))
        warehouse = Warehouse(deployment=deployment)
        warehouse.upload_corpus(corpus)
        built = warehouse.build_index("LUP", loaders=2, batch_size=4)
        report = warehouse.run_workload(
            [workload_query("q1"), workload_query("q2")], built,
            workers=1)
        return [(execution.name, execution.docs_with_results,
                 execution.result_rows, execution.result_bytes)
                for execution in report.executions]

    assert uris({"shards": 3, "cache_bytes": 1 << 20}) == uris(None)
