"""The read path leaves nothing for the cyclic collector.

With the collector switched off around a run, whatever ``gc.collect()``
finds afterwards is what only a collector pass could have freed — a
closure that recursed through its own cell, an exception cycled with
the process it failed — and a finished ``Process`` still alive is one
that something kept a table of.  Neither may grow with the number of
queries: a long-running front end would leak per query.  Counts only,
nothing here depends on wall-clock time.
"""

import gc

import pytest

from tests.warehouse.test_priced_once import _corpus

from repro.query.workload import workload_query
from repro.sim.process import Process
from repro.tenancy import TenancyConfig, TenantSpec
from repro.warehouse import Warehouse

#: What a run may leave unreachable, whatever its length (measured: 0).
MAX_UNREACHABLE = 20
#: Finished processes that may still be referenced after a run: the
#: driver's own completion event is still on the kernel's queue.
MAX_FINISHED_ALIVE = 2
STRATEGIES = ("LU", "LUP", "LUI", "2LUPI")


def _census(warehouse, action):
    """Run ``action`` with the collector off; return (unreachable
    objects it left, finished processes of this warehouse still held,
    processes it left running)."""
    env = warehouse.cloud.env
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        action()
        processes = [obj for obj in gc.get_objects()
                     if isinstance(obj, Process) and obj.env is env]
        finished = sum(not proc.is_alive for proc in processes)
        running = len(processes) - finished
        del processes
        return gc.collect(), finished, running
    finally:
        if enabled:
            gc.enable()


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
        unreachable, finished, running = _census(
            warehouse,
            lambda: reports.append(warehouse.serve(traffic, index)))
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

    once = _census(warehouse, loop(1))
    twice = _census(warehouse, loop(2))
    assert once[:2] == twice[:2]
    assert once[0] <= MAX_UNREACHABLE
    assert once[1] <= MAX_FINISHED_ALIVE
