"""Neither the read path nor the write path leaves anything for the
cyclic collector.

The kernel pauses the collector while it steps, so what a run leaves
cyclic piles up until a pass outside a run (``tests/census.py``).  Here
a serve, a ``run_query`` loop, a build (plain and checkpointed) and a
live index's add, delete, update and compaction each run with the
collector off: what ``gc.collect()`` then finds, and the finished
processes still alive, stay under a bound and do not grow with the
number of queries or documents — a long-running front end or loader
fleet would leak per query or per document.
"""

import pytest

from tests.census import MAX_UNREACHABLE, census
from tests.warehouse.test_priced_once import _corpus

from repro.query.workload import workload_query
from repro.tenancy import TenancyConfig, TenantSpec
from repro.warehouse import Warehouse

#: Finished processes that may still be referenced after a run: the
#: driver's own completion event is still on the kernel's queue.
MAX_FINISHED_ALIVE = 2
STRATEGIES = ("LU", "LUP", "LUI", "2LUPI")


def _serving_warehouse():
    warehouse = Warehouse(deployment={
        "loaders": 2, "batch_size": 4, "workers": 2,
        "cache_bytes": 1 << 20,
        "tenancy": TenancyConfig(tenants=(
            TenantSpec(name="alpha", weight=3.0),
            TenantSpec(name="beta", weight=1.0)))})
    warehouse.upload_corpus(_corpus(seed=77, documents=24))
    return warehouse, warehouse.build_index("2LUPI")


@pytest.mark.serving
def test_serve_garbage_and_finished_processes_do_not_grow_with_arrivals():
    counts = []
    for queries in (8, 16):
        warehouse, index = _serving_warehouse()
        traffic = {"arrival": "poisson", "rate_qps": 2.0,
                   "queries": queries, "seed": 7}
        reports = []
        unreachable, finished, running = census(
            lambda: reports.append(warehouse.serve(traffic, index)),
            warehouse.cloud.env)
        assert reports[0].offered == reports[0].completed == 2 * queries
        assert unreachable <= MAX_UNREACHABLE
        assert finished <= MAX_FINISHED_ALIVE
        # What is still running is watchdogs armed for the far future,
        # one per received message: every process that finished is gone.
        assert running > 0
        counts.append((unreachable, finished))
    assert counts[0] == counts[1]


def test_run_query_garbage_does_not_grow_with_the_queries():
    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus(seed=31, documents=24))
    indexes = [warehouse.build_index(name) for name in STRATEGIES]
    names = ("q1", "q2", "q6", "q9")

    def loop(passes):
        def run():
            for _ in range(passes):
                for index in indexes:
                    for name in names:
                        warehouse.run_query(workload_query(name), index)
        return run

    env = warehouse.cloud.env
    once = census(loop(1), env)
    twice = census(loop(2), env)
    assert once[:2] == twice[:2]
    assert once[0] <= MAX_UNREACHABLE
    assert once[1] <= MAX_FINISHED_ALIVE


def _write_census(prepare, documents):
    """(unreachable, finished) left by the action ``prepare(warehouse,
    base, increment)`` returns, on a fresh warehouse and two disjoint
    corpora of ``documents``.  What the action does not exercise is
    made outside the census: a generated ``Document`` tree links
    children to parents, and a live handle and its ``MergingStore``
    refer to each other — the caller's cycles, not the run's."""
    warehouse = Warehouse(deployment={"loaders": 2, "batch_size": 4})
    base = _corpus(seed=31, documents=documents)
    increment = _corpus(seed=7031, documents=documents, prefix="inc-")
    action = prepare(warehouse, base, increment)
    unreachable, finished, _ = census(action, warehouse.cloud.env)
    return unreachable, finished


def _build(warehouse, base, _increment):
    def action():
        warehouse.upload_corpus(base)
        for name in STRATEGIES:
            warehouse.build_index(name)
    return action


def _build_checkpointed(warehouse, base, _increment):
    def action():
        warehouse.upload_corpus(base)
        warehouse.build_index_checkpointed("2LUPI")
    return action


def _live_mutations(warehouse, base, increment):
    warehouse.upload_corpus(base)
    _, record = warehouse.build_index_checkpointed("LUI")
    live = warehouse.live_index(record.name)
    uris = [document.uri for document in base.documents]

    def action():
        warehouse.add_documents(live, increment)
        warehouse.delete_documents(live, uris[:2])
        warehouse.update_document(live, uris[2], increment.data[
            increment.documents[0].uri])
        warehouse.compact_index(live)
    return action


@pytest.mark.parametrize("prepare", [_build, _build_checkpointed,
                                     _live_mutations],
                         ids=["build_index", "build_index_checkpointed",
                              "live_add_delete_update_compact"])
def test_write_garbage_does_not_grow_with_the_documents(prepare):
    small, large = (_write_census(prepare, documents)
                    for documents in (8, 16))
    assert small[0] <= MAX_UNREACHABLE
    assert small[1] <= MAX_FINISHED_ALIVE
    assert small == large
