"""A workload whose process raised leaves the warehouse usable or fails
typed, never hangs.

At 4,000 documents a kernel stack overflow once escaped a query
worker's step: the worker was left mid-query with its lease keeper
renewing forever, and the next ``run_workload`` on that warehouse
never returned.  Two shapes of a raised process are pinned here: one
the kernel feeds to its waiters (the warehouse answers the next
workload) and one that escapes a step (every later run raises
:class:`~repro.errors.SimulationError` at once).  ``run_workload`` and
``serve()`` share the one query driver, so a failed worker fails both
the same way: a :class:`~repro.errors.SimulationDeadlock` naming the
worker and chaining its error, after which no process of the failed
run is left to take the next run's queries or responses.
"""

import pytest

from repro.config import ScaleProfile
from repro.engine.evaluator import evaluate_query
from repro.errors import SimulationDeadlock, SimulationError
from repro.query.workload import workload_query
from repro.tenancy import TenancyConfig, TenantSpec
from repro.warehouse import Warehouse, query_processor
from repro.warehouse.messages import QUERY_QUEUE
from repro.xmark import generate_corpus


def _deploy(deployment=None):
    warehouse = Warehouse(deployment=deployment)
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=20, document_bytes=4096, seed=13)))
    return warehouse, warehouse.build_index("LUP")


@pytest.fixture
def deployed():
    return _deploy()


def _raising(error):
    def join_query_rows(*_args):
        raise error
    return join_query_rows


def test_a_failed_worker_fails_the_workload_typed_and_the_next_answers(
        deployed, monkeypatch):
    warehouse, index = deployed
    real = query_processor.join_query_rows
    bug = RuntimeError("worker bug")
    monkeypatch.setattr(query_processor, "join_query_rows", _raising(bug))
    with pytest.raises(SimulationDeadlock) as raised:
        warehouse.run_workload([workload_query("q1")], index)
    # The deadlock names the worker that failed and chains its error.
    assert "'qworker-1'" in str(raised.value)
    assert "worker bug" in str(raised.value)
    assert raised.value.__cause__ is bug
    monkeypatch.setattr(query_processor, "join_query_rows", real)
    query = workload_query("q1")
    execution = warehouse.run_query(query, index)
    assert execution.result_rows == len(
        evaluate_query(query, warehouse.corpus.documents))


SERVE_TRAFFIC = {"arrival": "poisson", "rate_qps": 2.0, "queries": 6,
                 "mix": ("q1",), "seed": 7}


@pytest.mark.parametrize("deployment", [
    {"workers": 2},
    {"workers": 2, "tenancy": TenancyConfig(
        tenants=(TenantSpec(name="alpha"), TenantSpec(name="beta")))},
], ids=["fixed-fleet", "fair-share"])
def test_a_failed_worker_fails_serve_typed_and_the_next_answers(
        monkeypatch, deployment):
    warehouse, index = _deploy(deployment)
    real = query_processor.join_query_rows
    bug = RuntimeError("worker bug")
    monkeypatch.setattr(query_processor, "join_query_rows", _raising(bug))
    env = warehouse.cloud.env
    step, limit_s = env.step, env.now + 3600.0

    def bounded_step():
        # A run that polls on for queries nobody can answer fails here.
        assert env.now <= limit_s, "serve() still polling"
        step()
    monkeypatch.setattr(env, "step", bounded_step)
    with pytest.raises(SimulationDeadlock) as raised:
        warehouse.serve(SERVE_TRAFFIC, index)
    # The same rule as run_workload's: the worker is named, its error
    # is the cause.
    assert "'serve-worker-1'" in str(raised.value)
    assert "worker bug" in str(raised.value)
    assert raised.value.__cause__ is bug
    monkeypatch.setattr(query_processor, "join_query_rows", real)
    # The failed run took its queries, leases and responses back and
    # its submissions in flight with it: the next query waits behind
    # nothing, exactly as on a warehouse that never failed.
    sqs = warehouse.cloud.sqs
    assert [sqs.approximate_depth(QUERY_QUEUE),
            sqs.in_flight_count(QUERY_QUEUE)] == [0, 0]
    query = workload_query("q1")
    execution = warehouse.run_query(query, index)
    assert execution.result_rows == len(
        evaluate_query(query, warehouse.corpus.documents))
    clean, clean_index = _deploy(deployment)
    assert execution.response_s == pytest.approx(
        clean.run_query(query, clean_index).response_s, rel=1e-9)


def test_an_error_that_escaped_a_step_fails_every_later_run_typed(
        deployed, monkeypatch):
    warehouse, index = deployed
    # SystemExit is the one kind a process step does not catch, so it
    # leaves the worker mid-query as the stack overflow did.
    monkeypatch.setattr(query_processor, "join_query_rows",
                        _raising(SystemExit("escaped")))
    with pytest.raises(SystemExit):
        warehouse.run_workload([workload_query("q1")], index)
    monkeypatch.undo()
    with pytest.raises(SimulationError, match="cannot run again"):
        warehouse.run_workload([workload_query("q1")], index)
